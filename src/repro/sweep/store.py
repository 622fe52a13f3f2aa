"""Content-addressed result store with resume support over two backends.

One logical row per completed run::

    {"spec_hash": "...", "spec": {...}, "summary": {...},
     "elapsed_s": 1.23, "store_version": 1, "row_sha256": "..."}

:class:`ResultStore` owns the row semantics — canonical JSON encoding,
per-row checksums, torn-line tolerance, last-row-per-hash resolution,
and the :meth:`~ResultStore.content_digest` convergence contract — while
a :class:`~repro.sweep.backends.ResultStoreBackend` owns the bytes.
The store's path picks one of two backends (DESIGN.md §17):

* ``sqlite`` for ``.db``/``.sqlite``/``.sqlite3`` — one row per hash in
  a WAL-mode SQLite file, safe for many concurrent campaign workers.
* ``jsonl`` for any other path — the original single-file append-only
  JSONL, byte-identical to the pre-backend format.  Appending a line is
  the only write, so concurrent sweeps at worst duplicate a run — they
  never corrupt each other (the last row per hash wins on load).

An existing directory is refused with a :class:`ValueError`.

The hash is the spec's canonical content hash
(:meth:`repro.sweep.spec.RunSpec.content_hash`), so a store entry is
valid for exactly the run it describes: change any spec field and the
lookup misses, change the spec schema and ``SPEC_VERSION`` rolls every
hash over.

Integrity (DESIGN.md §13): every row written carries ``row_sha256``, a
SHA-256 over the row's canonical JSON without that field.  Reads verify
it; a mismatch — a torn append, a partial ``compact()``, disk corruption
— is treated exactly like an unparseable line: skipped in the lenient
path (the run re-executes on resume), raised with the line number in
strict mode.  Rows written before checksums existed still load (counted
as ``legacy``).  ``compact()`` is atomic per backend (tmp + fsync +
``os.replace`` for JSONL, one transaction for SQLite), so a
crash mid-compact never leaves a half-written store.  Compaction also
canonicalizes: last row per hash, canonically ordered, checksums
(re)computed, torn lines dropped.  ``merge()`` pulls absent rows in from
other stores of either backend — the cross-campaign cache-reuse primitive.

Float fidelity: summaries round-trip bit-exactly because ``json`` emits
CPython's shortest round-trip ``repr`` for floats.  The determinism
regression in tests/test_sweep.py leans on this.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from ..sim.metrics import RunSummary
from .backends import make_backend, sidecar_path
from .spec import RunSpec

STORE_VERSION = 1

CHECKSUM_FIELD = "row_sha256"


class StoreError(ValueError):
    """A store file exists but cannot be parsed."""


def row_checksum(row: dict) -> str:
    """SHA-256 over a row's canonical JSON, excluding the checksum field."""
    payload = {k: v for k, v in row.items() if k != CHECKSUM_FIELD}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


@dataclass
class StoreReport:
    """What :meth:`ResultStore.verify` found in one pass over the store."""

    lines: int = 0
    rows: int = 0
    legacy_rows: int = 0  # valid rows predating checksums
    torn_lines: int = 0  # unparseable JSON or rows without a spec_hash
    checksum_mismatches: int = 0
    unique_hashes: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.torn_lines == 0 and self.checksum_mismatches == 0


class ResultStore:
    """Append-only result store keyed by spec content hash.

    The path picks the backend (:func:`~repro.sweep.backends.make_backend`);
    an existing directory raises :class:`ValueError`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.backend = make_backend(self.path)
        self.skipped_rows = 0
        self._cache_sig: tuple | None = None
        self._cache: dict[str, RunSummary] = {}

    @property
    def backend_kind(self) -> str:
        return self.backend.kind

    def exists(self) -> bool:
        """Whether the backing JSONL file or SQLite database exists."""
        return self.backend.exists()

    def sidecar(self, name: str) -> Path:
        """This store's sidecar path (quarantine, manifest, leases)."""
        return sidecar_path(self.path, name)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def _decode_line(self, line: str) -> tuple[dict | None, str | None]:
        """(row, problem) for one stripped line; row is None when bad.

        A row that parses but fails its checksum is returned as
        ``(None, reason)`` too: a corrupted row must never be served, only
        re-run.  Legacy rows (no checksum field) pass with ``problem``
        None — :meth:`verify` counts them separately via the field test.
        """
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            return None, f"not valid JSON ({exc})"
        if not isinstance(row, dict) or "spec_hash" not in row:
            return None, "row has no spec_hash"
        stored = row.get(CHECKSUM_FIELD)
        if stored is not None and stored != row_checksum(row):
            return None, "row checksum mismatch (torn or corrupted row)"
        return row, None

    def rows(self, strict: bool = False) -> list[dict]:
        """All valid rows in backend order (empty when the store is absent).

        Torn lines — a sweep killed mid-append, interleaved writes from
        concurrent sweeps, or rows whose checksum no longer matches — are
        skipped (counted in ``skipped_rows``) so an interrupted sweep
        stays resumable; the affected runs simply re-run.  ``strict=True``
        raises :class:`StoreError` on the first bad line instead, for
        integrity checks.
        """
        self.skipped_rows = 0
        rows = []
        for location, line_number, line in self.backend.iter_lines():
            line = line.strip()
            if not line:
                continue
            row, problem = self._decode_line(line)
            if row is None:
                if strict:
                    raise StoreError(f"{location}:{line_number}: {problem}")
                self.skipped_rows += 1
                continue
            rows.append(row)
        return rows

    def verify(self) -> StoreReport:
        """One full integrity pass: per-line verdicts, never raises.

        The report distinguishes torn lines (unparseable) from checksum
        mismatches (parseable but corrupted) from legacy rows (valid,
        written before checksums existed), with ``location:line``
        positions for everything wrong, plus any backend-level corruption
        (SQLite quick_check) — the engine behind ``repro
        store verify``.
        """
        report = StoreReport()
        if not self.backend.exists():
            return report
        hashes: set[str] = set()
        for location, line_number, line in self.backend.iter_lines():
            line = line.strip()
            if not line:
                continue
            report.lines += 1
            row, problem = self._decode_line(line)
            if row is None:
                if "checksum" in (problem or ""):
                    report.checksum_mismatches += 1
                else:
                    report.torn_lines += 1
                report.problems.append(f"{location}:{line_number}: {problem}")
                continue
            report.rows += 1
            if CHECKSUM_FIELD not in row:
                report.legacy_rows += 1
            hashes.add(row["spec_hash"])
        for problem in self.backend.integrity_problems():
            report.checksum_mismatches += 1
            report.problems.append(problem)
        report.unique_hashes = len(hashes)
        return report

    def content_digest(self) -> str:
        """SHA-256 over the store's *logical* content.

        Last row per hash, sorted by hash, with the volatile fields
        (``elapsed_s`` wall-clock, the checksum that covers it) excluded —
        so two stores that hold the same results digest identically no
        matter what order the rows landed in, how many superseded
        duplicates remain, how long each run took, or *which backend
        holds them*.  This is the equality the chaos-convergence and
        campaign-convergence contracts are stated in: a crashed, retried,
        resumed, or N-worker sweep must reach the same digest as an
        undisturbed serial run.
        """
        latest: dict[str, dict] = {}
        for row in self.rows():
            latest[row["spec_hash"]] = row
        digest = hashlib.sha256()
        for spec_hash in sorted(latest):
            row = {
                k: v
                for k, v in latest[spec_hash].items()
                if k not in ("elapsed_s", CHECKSUM_FIELD)
            }
            digest.update(json.dumps(row, sort_keys=True).encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def _summaries(self) -> dict[str, RunSummary]:
        """The {hash: summary} index, parsed at most once per store state.

        Cached against the backend's signature (file stat or SQLite
        data_version): repeated :meth:`get` calls cost one
        :meth:`rows` pass total, while a write from another process
        changes the signature and triggers a reparse.  :meth:`put` and
        :meth:`compact` invalidate explicitly.
        """
        sig = self.backend.signature()
        if sig is None:
            self._cache_sig = None
            self._cache = {}
            return self._cache
        if sig != self._cache_sig:
            self._cache = {
                row["spec_hash"]: RunSummary.from_dict(row["summary"])
                for row in self.rows()
            }
            self._cache_sig = sig
        return self._cache

    def _invalidate(self) -> None:
        self._cache_sig = None
        self._cache = {}

    def load(self) -> dict[str, RunSummary]:
        """{spec_hash: summary} with the last row winning per hash."""
        return dict(self._summaries())

    def load_specs(self) -> dict[str, RunSpec]:
        """{spec_hash: spec} for every stored row carrying a spec."""
        specs: dict[str, RunSpec] = {}
        for row in self.rows():
            if "spec" in row:
                specs[row["spec_hash"]] = RunSpec.from_dict(row["spec"])
        return specs

    def completed_hashes(self) -> set[str]:
        """Hashes with at least one stored summary."""
        return set(self._summaries())

    def get(self, spec: RunSpec) -> RunSummary | None:
        """The stored summary for one spec, if any (cached single pass)."""
        return self._summaries().get(spec.content_hash)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def put(
        self,
        spec: RunSpec,
        summary: RunSummary,
        elapsed_s: float | None = None,
    ) -> None:
        """Append one completed run (checksummed)."""
        row = {
            "spec_hash": spec.content_hash,
            "spec": spec.to_dict(),
            "summary": summary.to_dict(),
            "elapsed_s": elapsed_s,
            "store_version": STORE_VERSION,
        }
        row[CHECKSUM_FIELD] = row_checksum(row)
        line = json.dumps(row, sort_keys=True) + "\n"
        self.backend.append_line(row["spec_hash"], line)
        self._invalidate()

    def compact(self) -> int:
        """Atomically rewrite the store in canonical form.

        Canonical form: the last row per hash, canonically ordered for
        the backend (sorted by hash for JSONL, the primary key for
        SQLite), every row checksummed
        (legacy rows are upgraded), torn lines dropped.  Returns the
        number of rows dropped (superseded duplicates plus torn lines).
        The rewrite is atomic per backend — a crash at any instant leaves
        either the original store or the finished replacement, never a
        torn one (the crash-simulation tests in tests/test_sweep.py
        interrupt the write and check exactly this).
        """
        rows = self.rows()
        torn = self.skipped_rows
        latest: dict[str, dict] = {}
        needs_rewrite = torn > 0
        for row in rows:
            latest[row["spec_hash"]] = row
            if CHECKSUM_FIELD not in row:
                needs_rewrite = True
        dropped = len(rows) - len(latest) + torn
        if self.backend.stale_order([row["spec_hash"] for row in rows]):
            needs_rewrite = True
        if dropped or needs_rewrite:
            ordered = []
            for spec_hash in sorted(latest):
                row = dict(latest[spec_hash])
                row[CHECKSUM_FIELD] = row_checksum(row)
                ordered.append(
                    (spec_hash, json.dumps(row, sort_keys=True) + "\n")
                )
            self.backend.rewrite(ordered)
            self._invalidate()
        return dropped

    def merge(
        self,
        sources: Iterable["ResultStore"],
        only_hashes: set[str] | None = None,
    ) -> int:
        """Pull rows this store lacks from other stores (either backend).

        For every hash absent here, the first source holding it wins and
        its latest row is appended verbatim — existing rows are never
        overwritten, so merging is idempotent and the merged digest is
        the digest of the union with self-precedence.  ``only_hashes``
        restricts the pull to a grid (the ``--cache-from`` read-through
        path).  Returns the number of rows appended.
        """
        have = {row["spec_hash"] for row in self.rows()}
        appended = 0
        for source in sources:
            latest: dict[str, dict] = {}
            for row in source.rows():
                latest[row["spec_hash"]] = row
            for spec_hash in sorted(latest):
                if spec_hash in have:
                    continue
                if only_hashes is not None and spec_hash not in only_hashes:
                    continue
                self.backend.append_line(
                    spec_hash,
                    json.dumps(latest[spec_hash], sort_keys=True) + "\n",
                )
                have.add(spec_hash)
                appended += 1
        if appended:
            self._invalidate()
        return appended
