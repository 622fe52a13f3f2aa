"""Tests for the two store backends and campaign lease mode.

The load-bearing properties (DESIGN.md §17):

* the same logical content yields bit-identical ``content_digest()``
  whichever backend holds it — single-file JSONL or SQLite;
* a directory is refused as a store, with the ``cat`` that converts it;
* compact and merge are idempotent and crash-safe on both backends;
* N concurrent lease-mode workers execute each spec exactly once and
  converge on the serial digest, including when a worker is killed
  mid-lease (the chaos-harness case);
* ``cache_from`` makes a superset campaign execute only the new specs.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.sweep import (
    ResultStore,
    RunSpec,
    SweepRunner,
    default_quarantine_path,
    run_campaign,
)
from repro.sweep.backends import SqliteBackend, detect_backend_kind
from repro.sweep.campaign import (
    FileLeases,
    SqliteLeases,
    campaign_status,
    make_lease_store,
)
from repro.sim.metrics import RunSummary
from repro.sweep.chaos import CHAOS_ENV, ChaosPlan, Fault
from repro.sweep.store import StoreError
from repro.telemetry import default_manifest_path

SHORT_NS = 150_000.0


def tiny_spec(**overrides) -> RunSpec:
    base = dict(scale="tiny", load=0.25, seed=2024, duration_ns=SHORT_NS)
    base.update(overrides)
    return RunSpec(**base)


def grid_specs(n: int = 6) -> list[RunSpec]:
    return [tiny_spec(load=round(0.1 + 0.05 * i, 2)) for i in range(n)]


def serial_digest(specs, tmp_path: Path) -> str:
    """The golden digest: one serial sweep into a plain JSONL store."""
    store = ResultStore(tmp_path / "golden.jsonl")
    SweepRunner(store=store).run(specs)
    return store.content_digest()


# ---------------------------------------------------------------------------
# backend detection and sidecar derivation
# ---------------------------------------------------------------------------


def directory_message(path: Path) -> str:
    return (
        f"{path} is a directory; a result store is one JSONL file, or "
        "SQLite for .db/.sqlite/.sqlite3 (convert a directory store "
        f"with: cat {path}/shard-*.jsonl > {path}.jsonl)"
    )


class TestBackendSelection:
    def test_detects_by_suffix_and_disk_state(self, tmp_path):
        assert detect_backend_kind("campaign.jsonl") == "jsonl"
        assert detect_backend_kind("campaign.db") == "sqlite"
        assert detect_backend_kind("campaign.sqlite3") == "sqlite"
        assert detect_backend_kind("anything.txt") == "jsonl"
        store_dir = tmp_path / "campdir"
        store_dir.mkdir()
        with pytest.raises(ValueError) as excinfo:
            detect_backend_kind(store_dir)
        assert str(excinfo.value) == directory_message(store_dir)

    def test_directory_refused_by_the_store_and_every_command(
        self, tmp_path, capsys
    ):
        store_dir = tmp_path / "old.db"  # a SQLite suffix does not help
        store_dir.mkdir()
        with pytest.raises(ValueError) as excinfo:
            ResultStore(store_dir)
        assert str(excinfo.value) == directory_message(store_dir)
        grid = ["--scale", "micro", "--load", "0.5", "--seed", "1"]
        for argv in (
            ["store", "verify", str(store_dir)],
            ["run", "fig6", "--scale", "micro", "--store", str(store_dir)],
            ["sweep", *grid, "--store", str(store_dir)],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.strip() == directory_message(store_dir)
        assert list(store_dir.iterdir()) == []

    def test_sidecars_never_lose_non_jsonl_suffixes(self):
        # The satellite fix: the old derivation string-replaced ".jsonl"
        # and mangled SQLite paths into their own data files.
        assert default_quarantine_path("camp.jsonl") == Path(
            "camp.quarantine.jsonl"
        )
        assert default_quarantine_path("camp.db") == Path(
            "camp.db.quarantine.jsonl"
        )
        assert default_manifest_path("campaign.jsonl", "w1") == Path(
            "campaign.manifest-w1.json"
        )
        assert default_manifest_path("campaign.db", "w1") == Path(
            "campaign.db.manifest-w1.json"
        )


# ---------------------------------------------------------------------------
# cross-backend equivalence
# ---------------------------------------------------------------------------


STORE_NAMES = {"jsonl": "s.jsonl", "sqlite": "s.db"}


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def executed(self, tmp_path_factory):
        """One real execution of a small grid, reused across this class."""
        tmp = tmp_path_factory.mktemp("equiv")
        specs = grid_specs(4)
        store = ResultStore(tmp / "golden.jsonl")
        SweepRunner(store=store).run(specs)
        return specs, store.load(), store.content_digest()

    def _populate(self, store, specs, summaries):
        for spec in specs:
            store.put(spec, summaries[spec.content_hash], elapsed_s=0.5)

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_same_content_same_digest_every_backend(
        self, tmp_path, executed, backend
    ):
        specs, summaries, golden = executed
        store = ResultStore(tmp_path / STORE_NAMES[backend])
        assert store.backend_kind == backend
        self._populate(store, specs, summaries)
        assert store.content_digest() == golden
        report = store.verify()
        assert report.ok
        assert report.unique_hashes == len(specs)

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_compact_preserves_digest_and_is_idempotent(
        self, tmp_path, executed, backend
    ):
        specs, summaries, golden = executed
        store = ResultStore(tmp_path / STORE_NAMES[backend])
        self._populate(store, specs, summaries)
        # Supersede one row.  Append-only backends keep both rows until
        # compact drops the stale one; SQLite upserts at write time, so
        # there is never a duplicate to drop.
        store.put(specs[0], summaries[specs[0].content_hash], elapsed_s=9.0)
        assert store.compact() == (0 if backend == "sqlite" else 1)
        assert store.content_digest() == golden
        assert store.compact() == 0  # second compact: nothing to do
        assert store.content_digest() == golden
        assert store.verify().ok

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_merge_is_idempotent_and_digest_preserving(
        self, tmp_path, executed, backend
    ):
        specs, summaries, golden = executed
        half = len(specs) // 2
        left = ResultStore(tmp_path / "left.jsonl")
        self._populate(left, specs[:half], summaries)
        right = ResultStore(tmp_path / "right.db")
        # Overlap: right holds one of left's specs too.
        self._populate(right, specs[half - 1 :], summaries)
        merged = ResultStore(tmp_path / f"m-{STORE_NAMES[backend]}")
        appended = merged.merge([left, right])
        assert appended == len(specs)
        assert merged.content_digest() == golden
        assert merged.merge([left, right]) == 0  # idempotent
        assert merged.content_digest() == golden

    def test_sqlite_rewrite_rolls_back_on_error(self, tmp_path, executed):
        specs, summaries, golden = executed
        store = ResultStore(tmp_path / "roll.db")
        self._populate(store, specs, summaries)

        def poisoned_rows():
            yield "00aa", '{"spec_hash": "00aa"}\n'
            raise RuntimeError("simulated crash mid-rewrite")

        with pytest.raises(RuntimeError):
            store.backend.rewrite(poisoned_rows())
        assert store.content_digest() == golden
        assert store.verify().ok


# ---------------------------------------------------------------------------
# lease stores
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def _lease_store(kind: str, tmp_path: Path, clock):
    if kind == "sqlite":
        backend = SqliteBackend(tmp_path / "leases.db")
        backend.connection()
        return SqliteLeases(backend, clock=clock)
    return FileLeases(tmp_path / "store.jsonl", clock=clock)


@pytest.mark.parametrize("kind", ["sqlite", "file"])
class TestLeaseStores:
    def test_claim_respects_limit_and_peer_leases(self, tmp_path, kind):
        clock = FakeClock()
        leases = _lease_store(kind, tmp_path, clock)
        hashes = ["aa", "bb", "cc", "dd"]
        got_a = leases.claim(hashes, "alice", ttl_s=10.0, limit=2)
        assert got_a == ["aa", "bb"]
        got_b = leases.claim(hashes, "bob", ttl_s=10.0, limit=4)
        # Alice's live leases are skipped, and bob takes only his even
        # share of the two free specs: one for him, one for alice.
        assert got_b == ["cc"]
        assert leases.claim(hashes, "carol", 10.0, limit=4) == ["dd"]

    def test_expired_lease_is_taken_over(self, tmp_path, kind):
        clock = FakeClock()
        leases = _lease_store(kind, tmp_path, clock)
        assert leases.claim(["aa"], "alice", ttl_s=10.0, limit=1) == ["aa"]
        assert leases.claim(["aa"], "bob", ttl_s=10.0, limit=1) == []
        clock.now += 11.0  # alice's lease expires un-renewed
        assert leases.claim(["aa"], "bob", ttl_s=10.0, limit=1) == ["aa"]

    def test_renew_extends_only_the_owners_lease(self, tmp_path, kind):
        clock = FakeClock()
        leases = _lease_store(kind, tmp_path, clock)
        leases.claim(["aa"], "alice", ttl_s=10.0, limit=1)
        clock.now += 8.0
        leases.renew(["aa"], "alice", ttl_s=10.0)
        clock.now += 8.0  # 16s after claim, 8s after renewal: still live
        assert leases.claim(["aa"], "bob", ttl_s=10.0, limit=1) == []
        leases.renew(["aa"], "bob", ttl_s=100.0)  # not bob's to renew
        owner, expires = leases.snapshot()["aa"]
        assert owner == "alice"
        # Renewed at t+8 for 10s: expiry is t+18, untouched by bob.
        assert expires == pytest.approx(clock.now - 8.0 + 10.0)

    def test_release_frees_the_spec(self, tmp_path, kind):
        clock = FakeClock()
        leases = _lease_store(kind, tmp_path, clock)
        leases.claim(["aa", "bb"], "alice", ttl_s=10.0, limit=2)
        leases.release(["aa"], "alice")
        assert leases.claim(["aa", "bb"], "bob", ttl_s=10.0, limit=2) == [
            "aa"
        ]

    def test_release_by_non_owner_is_a_noop(self, tmp_path, kind):
        clock = FakeClock()
        leases = _lease_store(kind, tmp_path, clock)
        leases.claim(["aa"], "alice", ttl_s=10.0, limit=1)
        leases.release(["aa"], "bob")
        assert leases.claim(["aa"], "bob", ttl_s=10.0, limit=1) == []


def test_make_lease_store_picks_the_backend_table(tmp_path):
    sqlite_store = ResultStore(tmp_path / "a.db")
    assert isinstance(make_lease_store(sqlite_store), SqliteLeases)
    jsonl_store = ResultStore(tmp_path / "a.jsonl")
    file_leases = make_lease_store(jsonl_store)
    assert isinstance(file_leases, FileLeases)
    assert file_leases.path == tmp_path / "a.leases.jsonl"


def test_file_leases_tolerate_a_torn_trailing_line(tmp_path):
    clock = FakeClock()
    leases = FileLeases(tmp_path / "store.jsonl", clock=clock)
    leases.claim(["aa"], "alice", ttl_s=10.0, limit=1)
    with leases.path.open("a") as handle:
        handle.write('{"spec_hash": "bb", "owner": "cr')  # torn mid-write
    assert leases.snapshot() == {"aa": ("alice", 1010.0)}


# ---------------------------------------------------------------------------
# incremental reads: a long-lived reader equals a fresh full read
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["sqlite", "file"])
def test_lease_reader_equals_a_fresh_read_after_every_append(tmp_path, kind):
    """One reader instance follows the log through claims, renewals,
    releases, a torn fragment and the whole line that lands after it."""
    clock = FakeClock()
    reader = _lease_store(kind, tmp_path, clock)
    writer = _lease_store(kind, tmp_path, clock)

    def fresh():
        return _lease_store(kind, tmp_path, clock).snapshot()

    steps = [
        lambda: writer.claim(["aa", "bb", "cc"], "alice", 10.0, 2),
        lambda: writer.renew(["aa"], "alice", 20.0),
        lambda: writer.release(["bb"], "alice"),
        lambda: writer.claim(["bb", "cc"], "bob", 10.0, 2),
    ]
    if kind == "file":
        steps.append(
            lambda: writer.path.open("a").write('{"spec_hash": "dd", "ow')
        )
    steps.append(lambda: writer.claim(["ee"], "carol", 10.0, 1))
    assert reader.snapshot() == fresh() == {}
    for step in steps:
        step()
        clock.now += 1.0
        assert reader.snapshot() == fresh()
    # A torn fragment stays one torn line: the next append ends it with
    # a newline first, so the line after it reads whole.
    assert "dd" not in reader.snapshot()
    assert "ee" in reader.snapshot()


def canned_summary(marker: int = 0) -> RunSummary:
    return RunSummary(
        duration_ns=1.0,
        epoch_ns=1.0,
        num_flows=1,
        num_completed=1,
        goodput_normalized=0.5,
        goodput_gbps=1.0,
        mice_fct_p99_ns=None,
        mice_fct_mean_ns=None,
        extra={"marker": marker},
    )


def store_view(store: ResultStore) -> dict:
    return {h: s.to_dict() for h, s in store.load().items()}


@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
def test_store_reader_equals_a_fresh_read_after_every_append(
    tmp_path, backend
):
    """Puts, re-puts, merges and a compaction by another instance: one
    long-lived reader always holds what a fresh full read holds."""
    path = tmp_path / STORE_NAMES[backend]
    specs = grid_specs(4)
    reader = ResultStore(path)
    writer = ResultStore(path)
    other = ResultStore(tmp_path / "other.jsonl")
    other.put(specs[3], canned_summary(3))

    steps = [
        lambda: writer.put(specs[0], canned_summary(0)),
        lambda: writer.put(specs[1], canned_summary(1)),
        lambda: writer.put(specs[0], canned_summary(10)),  # re-put
        lambda: writer.merge([other]),
        lambda: writer.put(specs[2], canned_summary(2)),
        lambda: writer.compact(),
        lambda: writer.put(specs[1], canned_summary(11)),
        # Two replacements between reads: the reader's open file keeps
        # the first new inode from being reused by the second.
        lambda: (
            writer.put(specs[2], canned_summary(12)),
            writer.compact(),
            writer.put(specs[3], canned_summary(13)),
            writer.compact(),
        ),
    ]
    assert store_view(reader) == store_view(ResultStore(path)) == {}
    for step in steps:
        step()
        assert store_view(reader) == store_view(ResultStore(path))
        assert reader.completed_hashes() == ResultStore(
            path
        ).completed_hashes()
    assert store_view(reader)[specs[0].content_hash]["extra"] == {
        "marker": 10
    }
    assert len(reader.completed_hashes()) == 4


def test_jsonl_reader_reads_a_trailing_fragment_as_a_full_read_does(
    tmp_path,
):
    """A torn fragment at the end of the file stays one torn line, and a
    whole row whose newline never landed counts, for a long-lived reader
    as for a fresh full read; the next append starts a new line."""
    path = tmp_path / "s.jsonl"
    specs = grid_specs(3)
    reader = ResultStore(path)
    writer = ResultStore(path)
    writer.put(specs[0], canned_summary(0))
    assert reader.completed_hashes() == {specs[0].content_hash}
    with path.open("a") as handle:
        handle.write('{"spec_hash": "torn-mid-wr')  # a crashed writer
    assert reader.completed_hashes() == ResultStore(path).completed_hashes()
    writer.put(specs[1], canned_summary(1))
    assert reader.completed_hashes() == ResultStore(path).completed_hashes()
    assert len(reader.completed_hashes()) == 2
    other = ResultStore(tmp_path / "other.jsonl")
    other.put(specs[2], canned_summary(2))
    with path.open("a") as handle:
        handle.write(other.path.read_text().rstrip("\n"))
    assert reader.completed_hashes() == ResultStore(path).completed_hashes()
    assert len(reader.completed_hashes()) == 3
    writer.put(specs[0], canned_summary(10))
    assert store_view(reader) == store_view(ResultStore(path))
    assert ResultStore(path).verify().torn_lines == 1
    # compact() replaces the file: the reader starts over and agrees.
    assert writer.compact() == 2  # the torn line and a superseded row
    assert store_view(reader) == store_view(ResultStore(path))


def test_sqlite_reader_counts_a_good_reput_of_a_corrupted_row(tmp_path):
    path = tmp_path / "s.db"
    specs = grid_specs(2)
    reader = ResultStore(path)
    writer = ResultStore(path)
    writer.put(specs[0], canned_summary(0))
    line = json.dumps({"spec_hash": specs[1].content_hash, "spec": {},
                       "summary": {}, "row_sha256": "0" * 64})
    writer.backend.append_line(specs[1].content_hash, line + "\n")
    assert reader.completed_hashes() == {specs[0].content_hash}
    assert reader.completed_hashes() == ResultStore(path).completed_hashes()
    writer.put(specs[1], canned_summary(1))
    assert reader.completed_hashes() == {s.content_hash for s in specs}
    assert store_view(reader) == store_view(ResultStore(path))
    # A rewrite renumbers the rows: the reader starts over and agrees.
    writer.backend.append_line(specs[0].content_hash, line + "\n")
    assert reader.completed_hashes() == {specs[1].content_hash}
    assert writer.compact() == 1
    assert store_view(reader) == store_view(ResultStore(path))


@pytest.mark.parametrize("store_name", ["fleet.jsonl", "fleet.db"])
def test_lone_worker_decodes_each_row_a_few_times(
    tmp_path, monkeypatch, store_name
):
    """A single-worker campaign reads only what changed: its JSON decodes
    stay within a small constant of the lease and store rows it writes,
    where re-reading everything each round costs rounds x rows."""
    specs = [tiny_spec(seed=seed) for seed in range(240)]
    monkeypatch.setattr(
        "repro.sweep.runner.execute_spec", lambda spec: canned_summary()
    )
    decodes = 0
    real_loads = json.loads

    def counting_loads(*args, **kwargs):
        nonlocal decodes
        decodes += 1
        return real_loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    store = ResultStore(tmp_path / store_name)
    report = run_campaign(specs, store, worker="solo", lease_ttl_s=30.0)
    monkeypatch.setattr(json, "loads", real_loads)
    assert report.executed == len(specs)
    assert report.rounds == len(specs) // 4  # a claim, and reads, per 4
    lease_log = store.sidecar("leases.jsonl")
    lease_rows = (
        len(lease_log.read_text().splitlines()) if lease_log.exists() else 0
    )
    assert decodes <= 3 * (len(specs) + lease_rows)


@pytest.mark.parametrize(
    "lease_batch, rounds", [(None, 2), (3, 3)], ids=["default", "fixed"]
)
def test_claim_size_per_round(tmp_path, monkeypatch, lease_batch, rounds):
    """By default a lone worker claims ``4 * jobs`` specs at a time, so 8
    specs take two claims at ``jobs=1``; ``lease_batch`` sets the most a
    claim takes instead."""
    monkeypatch.setattr(
        "repro.sweep.runner.execute_spec", lambda spec: canned_summary()
    )
    specs = [tiny_spec(seed=seed) for seed in range(8)]
    store = ResultStore(tmp_path / "fleet.db")
    report = run_campaign(
        specs, store, lease_ttl_s=30.0, lease_batch=lease_batch
    )
    assert (report.executed, report.rounds) == (8, rounds)


def test_a_late_worker_claims_an_even_share(tmp_path, monkeypatch):
    """A worker that finds a live peer holding leases takes half of the
    free specs per claim, not its whole batch, and leaves the peer's
    specs to the peer."""
    monkeypatch.setattr(
        "repro.sweep.runner.execute_spec", lambda spec: canned_summary()
    )
    specs = [tiny_spec(seed=seed) for seed in range(8)]
    store = ResultStore(tmp_path / "fleet.db")
    leases = make_lease_store(store)
    peer_held = leases.claim(
        [spec.content_hash for spec in specs], "peer", 300.0, limit=4
    )
    assert len(peer_held) == 4

    def peer_finishes(_seconds: float) -> None:
        for spec in specs:
            if spec.content_hash in peer_held:
                store.put(spec, canned_summary())
        leases.release(peer_held, "peer")

    report = run_campaign(
        specs, store, worker="late", lease_ttl_s=30.0, lease_batch=8,
        sleep=peer_finishes,
    )
    # Claims of 2, 1 and 1 of the 4 free specs, shared with the peer.
    assert (report.executed, report.rounds) == (4, 3)
    assert report.done_elsewhere == 4
    assert store.completed_hashes() == {spec.content_hash for spec in specs}


def _lose_writes(store: ResultStore, spec_hash: str, times: int) -> None:
    """Make the first ``times`` writes of one spec's row never land."""
    append = store.backend.append_line
    lost = []

    def lossy_append(row_hash: str, line: str) -> None:
        if row_hash == spec_hash and len(lost) < times:
            lost.append(line)
            return
        append(row_hash, line)

    store.backend.append_line = lossy_append


def test_a_row_that_does_not_read_back_is_written_again(
    tmp_path, monkeypatch
):
    """The runner holds a spec whose row the store lacks: the lease loop
    writes the row again instead of serving it as cached forever."""
    monkeypatch.setattr(
        "repro.sweep.runner.execute_spec", lambda spec: canned_summary()
    )
    specs = grid_specs(3)
    store = ResultStore(tmp_path / "fleet.jsonl")
    _lose_writes(store, specs[1].content_hash, times=1)
    report = run_campaign(specs, store, lease_ttl_s=30.0)
    assert report.executed == 3  # written again, not run again
    assert store.completed_hashes() == {spec.content_hash for spec in specs}


def test_a_row_lost_twice_ends_the_campaign(tmp_path, monkeypatch):
    monkeypatch.setattr(
        "repro.sweep.runner.execute_spec", lambda spec: canned_summary()
    )
    specs = grid_specs(2)
    store = ResultStore(tmp_path / "fleet.db")
    _lose_writes(store, specs[0].content_hash, times=2)
    with pytest.raises(StoreError, match="does not read back"):
        run_campaign(specs, store, lease_ttl_s=30.0)


def test_an_error_after_a_skipped_spec_is_raised_as_is(tmp_path, monkeypatch):
    """Under on_error="skip" an unrelated error (here a full disk) is not
    reported as the failure of the spec skipped before it."""
    specs = grid_specs(2)

    def execute(spec):
        if spec == specs[0]:
            raise RuntimeError("bad spec")
        return canned_summary()

    monkeypatch.setattr("repro.sweep.runner.execute_spec", execute)
    store = ResultStore(tmp_path / "fleet.jsonl")

    def full_disk(_spec_hash: str, _line: str) -> None:
        raise OSError("No space left on device")

    store.backend.append_line = full_disk
    with pytest.raises(OSError, match="No space left"):
        run_campaign(
            specs, store, lease_ttl_s=30.0, lease_batch=2, on_error="skip"
        )


def test_waiting_specs_keep_their_leases_alive(tmp_path, monkeypatch):
    """A round's specs wait behind the one that runs; their leases are
    renewed meanwhile, so none lapses while its worker is alive, even
    when the round takes longer than the lease TTL."""
    store = ResultStore(tmp_path / "fleet.jsonl")
    lapsed: list[str] = []

    def slow_execute(spec):
        now = time.time()
        for spec_hash, (owner, expires) in FileLeases(
            store.path
        ).snapshot().items():
            if owner == "solo" and 0 < expires <= now:
                lapsed.append(spec_hash)
        time.sleep(0.1)
        return canned_summary()

    monkeypatch.setattr("repro.sweep.runner.execute_spec", slow_execute)
    specs = [tiny_spec(seed=seed) for seed in range(8)]
    # The first round claims 4 specs: 0.4 s of work on a 0.3 s lease.
    report = run_campaign(specs, store, worker="solo", lease_ttl_s=0.3)
    assert report.executed == len(specs)
    assert lapsed == []


# ---------------------------------------------------------------------------
# campaigns: serial convergence, cache reuse
# ---------------------------------------------------------------------------


class TestCampaignSerial:
    def test_repeated_campaigns_converge_and_cache(self, tmp_path):
        specs = grid_specs(3)
        golden = serial_digest(specs, tmp_path)
        store = ResultStore(tmp_path / "fleet.db")
        first = run_campaign(specs, store, lease_ttl_s=30.0)
        assert (first.executed, first.cached) == (3, 0)
        assert store.content_digest() == golden
        second = run_campaign(specs, store, lease_ttl_s=30.0)
        assert (second.executed, second.cached) == (0, 3)
        assert store.content_digest() == golden
        # Leases are cleaned up: nothing held after a finished campaign.
        assert campaign_status(store)["active_leases"] == {}

    def test_cache_from_superset_executes_only_new_specs(self, tmp_path):
        old_specs = grid_specs(3)
        new_spec = tiny_spec(load=0.9)
        prior = ResultStore(tmp_path / "prior.jsonl")
        SweepRunner(store=prior).run(old_specs)
        golden = serial_digest(old_specs + [new_spec], tmp_path)

        store = ResultStore(tmp_path / "fleet.db")
        report = run_campaign(
            old_specs + [new_spec],
            store,
            cache_from=[prior],
            lease_ttl_s=30.0,
        )
        # The acceptance counter contract: only the genuinely new spec
        # executed; everything else was imported from the prior store.
        assert report.executed == 1
        assert report.imported == 3
        assert report.cached == 3
        assert store.content_digest() == golden

    def test_cache_from_works_across_backends(self, tmp_path):
        specs = grid_specs(2)
        prior = ResultStore(tmp_path / "prior.db")
        SweepRunner(store=prior).run(specs)
        golden = prior.content_digest()
        store = ResultStore(tmp_path / "fleet.jsonl")
        report = run_campaign(
            specs, store, cache_from=[prior], lease_ttl_s=30.0
        )
        assert report.executed == 0
        assert report.imported == 2
        assert store.content_digest() == golden

    def test_failed_specs_do_not_livelock_the_campaign(self, tmp_path):
        specs = grid_specs(2)
        doomed = specs[0]
        plan = ChaosPlan.from_faults(
            [Fault(match=doomed.content_hash[:8], kind="raise")]
        )
        os.environ[CHAOS_ENV] = plan.to_json()
        try:
            store = ResultStore(tmp_path / "fleet.db")
            report = run_campaign(
                specs, store, lease_ttl_s=30.0, on_error="skip"
            )
        finally:
            del os.environ[CHAOS_ENV]
        assert report.failed == 1
        assert report.executed == 1
        assert store.completed_hashes() == {specs[1].content_hash}

    def test_validates_lease_parameters(self, tmp_path):
        store = ResultStore(tmp_path / "fleet.db")
        # SQLite stores a nan expiry as NULL, which the lease table refuses.
        for ttl in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError) as excinfo:
                run_campaign([], store, lease_ttl_s=ttl)
            assert str(excinfo.value) == "lease_ttl_s must be positive and finite"
        with pytest.raises(ValueError, match="lease_batch"):
            run_campaign([], store, lease_batch=0)


# ---------------------------------------------------------------------------
# campaigns: concurrent workers (the convergence contract)
# ---------------------------------------------------------------------------

CONCURRENT_NS = 400_000.0  # slower specs so two workers genuinely overlap


def _concurrent_specs() -> list[RunSpec]:
    return [
        tiny_spec(load=round(0.1 + 0.05 * i, 2), duration_ns=CONCURRENT_NS)
        for i in range(8)
    ]


def _campaign_worker(
    store_path: str,
    out_path: str,
    barrier,
    lease_ttl_s: float,
    chaos_json: str | None = None,
) -> None:
    if chaos_json is not None:
        os.environ[CHAOS_ENV] = chaos_json
    store = ResultStore(store_path)
    if barrier is not None:
        barrier.wait(timeout=60)
    report = run_campaign(
        _concurrent_specs(),
        store,
        worker=f"worker-{os.getpid()}",
        lease_ttl_s=lease_ttl_s,
        lease_batch=1,
    )
    Path(out_path).write_text(
        json.dumps({"executed": report.executed, "failed": report.failed})
    )


@pytest.mark.parametrize("store_name", ["fleet.db", "fleet.jsonl"])
def test_two_concurrent_workers_execute_each_spec_exactly_once(
    tmp_path, store_name
):
    specs = _concurrent_specs()
    golden = serial_digest(specs, tmp_path)
    store_path = tmp_path / store_name
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    outs = [tmp_path / f"report-{i}.json" for i in range(2)]
    workers = [
        ctx.Process(
            target=_campaign_worker,
            args=(str(store_path), str(out), barrier, 120.0),
        )
        for out in outs
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=180)
        assert worker.exitcode == 0
    reports = [json.loads(out.read_text()) for out in outs]
    # Exactly once: the executed counts add up to the grid with no
    # double-execution, and no worker starved.
    assert sum(r["executed"] for r in reports) == len(specs)
    assert all(r["executed"] >= 1 for r in reports)
    assert all(r["failed"] == 0 for r in reports)
    store = ResultStore(store_path)
    assert store.content_digest() == golden
    assert store.verify().ok


def _sweep_cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", "sweep", *args]


def _cli_env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {"PYTHONPATH": src, "PATH": "/usr/bin:/bin"}
    # Stored summaries record core_used: match this process's core.
    if "REPRO_CORE" in os.environ:
        env["REPRO_CORE"] = os.environ["REPRO_CORE"]
    return env


CLI_GRID = (
    "--scale", "tiny", "--load", "0.1", "--load", "0.15", "--load", "0.2",
    "--load", "0.25", "--seed", "2024", "--seed", "7",
    "--duration-ms", "0.4",
)


def _cli_serial_digest(tmp_path: Path) -> str:
    """The golden digest: one serial sweep of CLI_GRID into a JSONL store."""
    proc = subprocess.run(
        _sweep_cli(*CLI_GRID, "--store", str(tmp_path / "golden.jsonl")),
        capture_output=True, text=True, env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return ResultStore(tmp_path / "golden.jsonl").content_digest()


def test_two_concurrent_sweeps_share_one_store(tmp_path):
    """Two `repro sweep` processes on one SQLite store: each spec runs
    once, the totals of each cover the grid, and the store reaches the
    serial digest."""
    golden = _cli_serial_digest(tmp_path)
    store = str(tmp_path / "fleet.db")
    workers = [
        subprocess.Popen(
            _sweep_cli(
                *CLI_GRID, "--store", store, "--worker-id", name,
                "--lease-batch", "1", "--json",
            ),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_cli_env(),
        )
        for name in ("a", "b")
    ]
    reports = []
    for worker in workers:
        out, err = worker.communicate(timeout=180)
        assert worker.returncode == 0, err
        reports.append(json.loads(out))
    assert sum(r["totals"]["executed"] for r in reports) == 8
    for report in reports:
        totals = report["totals"]
        assert totals["specs"] == 8
        assert totals["failed"] == 0
        assert (
            totals["executed"] + totals["cached"] + totals["done_elsewhere"]
        ) == 8
        assert len(report["runs"]) == 8  # every grid spec, read back
    assert reports[1]["content_digest"] == golden


def test_sweep_cache_from_imports_and_executes_nothing(tmp_path):
    golden = _cli_serial_digest(tmp_path)
    proc = subprocess.run(
        _sweep_cli(
            *CLI_GRID, "--store", str(tmp_path / "cached.db"),
            "--cache-from", str(tmp_path / "golden.jsonl"), "--json",
        ),
        capture_output=True, text=True, env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["totals"]["executed"] == 0
    assert payload["totals"]["imported"] == 8
    assert payload["totals"]["cached"] == 8
    assert payload["totals"]["rounds"] == 0
    assert payload["content_digest"] == golden
    assert "8 cached (8 imported)" in proc.stderr


@pytest.mark.parametrize("end", ["torn", "unterminated"])
def test_sweep_finishes_over_a_torn_store_end(tmp_path, end):
    """A crash left the store's last line without its newline: a torn
    fragment, or a whole row.  The next sweep still ends with every grid
    spec's row in the store, and a whole row is served, not run again."""
    store = tmp_path / "s.jsonl"
    grid = ("--scale", "tiny", "--load", "0.1", "--duration-ms", "0.15")
    first = subprocess.run(
        _sweep_cli(*grid, "--seed", "1", "--store", str(store)),
        capture_output=True, text=True, env=_cli_env(), timeout=120,
    )
    assert first.returncode == 0, first.stderr
    if end == "torn":
        with store.open("a") as handle:
            handle.write('{"spec_hash": "torn-off-mid')
    else:
        store.write_text(store.read_text().rstrip("\n"))
    proc = subprocess.run(
        _sweep_cli(
            *grid, "--seed", "1", "--seed", "2", "--store", str(store),
            "--json",
        ),
        capture_output=True, text=True, env=_cli_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    totals = json.loads(proc.stdout)["totals"]
    assert (totals["executed"], totals["cached"]) == (1, 1)
    report = ResultStore(store).verify()
    assert (report.unique_hashes, report.torn_lines) == (2, end == "torn")


FRESH_OPEN_ROUNDS = 120


def _fresh_store_opener(root: str, barrier, results) -> None:
    """Open one new SQLite store per round, in lockstep with the peers."""
    failures = []
    for round_index in range(FRESH_OPEN_ROUNDS):
        barrier.wait(timeout=60)
        backend = SqliteBackend(Path(root) / f"fresh-{round_index}.db")
        try:
            backend.append_line(f"hash-{os.getpid()}", "{}")
        except sqlite3.OperationalError as exc:
            failures.append(f"round {round_index}: {exc}")
        finally:
            backend.close()
    results.put(failures)


def test_concurrent_first_opens_of_a_fresh_sqlite_store_all_succeed(tmp_path):
    """Several processes opening one new store at the same instant must
    wait for each other's WAL set-up instead of failing "database is
    locked" (the start-up race lease-mode workers hit)."""
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(3)
    results = ctx.Queue()
    openers = [
        ctx.Process(
            target=_fresh_store_opener, args=(str(tmp_path), barrier, results)
        )
        for _ in range(3)
    ]
    for opener in openers:
        opener.start()
    failures = [f for _ in openers for f in results.get(timeout=60)]
    for opener in openers:
        opener.join(timeout=60)
        assert opener.exitcode == 0
    assert failures == []
    for round_index in range(FRESH_OPEN_ROUNDS):
        backend = SqliteBackend(tmp_path / f"fresh-{round_index}.db")
        assert len(list(backend.iter_lines())) == 3
        backend.close()


def test_worker_killed_mid_lease_is_taken_over(tmp_path):
    """The chaos case: a worker hangs holding leases and is killed.

    Its leases expire un-renewed, and a healthy late-starting worker
    takes over every spec — the store still converges on the serial
    digest and the dead worker contributes nothing.
    """
    specs = _concurrent_specs()
    golden = serial_digest(specs, tmp_path)
    store_path = tmp_path / "fleet.db"
    # The victim hangs forever inside its very first spec execution,
    # holding a claimed lease (chaos matches every grid spec).
    plan = ChaosPlan.from_faults(
        [Fault(match=spec.content_hash[:8], kind="hang") for spec in specs]
    )
    ctx = multiprocessing.get_context("fork")
    victim_out = tmp_path / "victim.json"
    victim = ctx.Process(
        target=_campaign_worker,
        args=(str(store_path), str(victim_out), None, 2.0, plan.to_json()),
    )
    victim.start()
    try:
        leases = make_lease_store(ResultStore(store_path))
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if store_path.exists() and leases.snapshot():
                break
            time.sleep(0.05)
        else:
            pytest.fail("victim never claimed a lease")
    finally:
        victim.terminate()
        victim.join(timeout=30)
    assert not victim_out.exists()  # died mid-lease, reported nothing

    store = ResultStore(store_path)
    report = run_campaign(
        specs, store, worker="survivor", lease_ttl_s=30.0, lease_batch=4
    )
    assert report.executed == len(specs)
    assert report.failed == 0
    assert store.content_digest() == golden


# ---------------------------------------------------------------------------
# campaign status and manifests
# ---------------------------------------------------------------------------


def test_campaign_status_reports_completion_and_leases(tmp_path):
    specs = grid_specs(2)
    store = ResultStore(tmp_path / "fleet.db")
    run_campaign(specs, store, lease_ttl_s=30.0)
    leases = make_lease_store(store)
    leases.claim(["f" * 64], "straggler", ttl_s=300.0, limit=1)
    status = campaign_status(store, specs + [tiny_spec(load=0.9)])
    assert status["backend"] == "sqlite"
    assert status["completed"] == 2
    assert status["total"] == 3
    assert status["pending"] == 1
    assert status["content_digest"] == store.content_digest()
    (lease,) = status["active_leases"].values()
    assert lease["owner"] == "straggler"
    assert 0 < lease["expires_in_s"] <= 300


def test_campaign_status_writes_nothing(tmp_path, capsys):
    """Status reads the lease log without the claim lock, so it leaves
    the store's directory as it found it (here: an archived store whose
    lock file was not kept)."""
    store = ResultStore(tmp_path / "t1.jsonl")
    SweepRunner(store=store).run(grid_specs(1))
    leases = FileLeases(store.path)
    leases.claim(["f" * 64], "straggler", ttl_s=300.0, limit=1)
    leases.lock_path.unlink()
    before = sorted(os.listdir(tmp_path))
    assert main(["campaign", "status", str(store.path)]) == 0
    out = capsys.readouterr().out
    assert "1 completed spec(s)" in out
    assert "held by straggler" in out
    assert sorted(os.listdir(tmp_path)) == before


def test_campaign_writes_a_per_worker_manifest(tmp_path):
    specs = grid_specs(2)
    store = ResultStore(tmp_path / "fleet.db")
    report = run_campaign(
        specs,
        store,
        worker="w1",
        lease_ttl_s=30.0,
        telemetry=tmp_path / "events.jsonl",
    )
    assert report.manifest_path == str(tmp_path / "fleet.db.manifest-w1.json")
    manifest = json.loads(Path(report.manifest_path).read_text())
    assert manifest["worker"] == "w1"
    assert manifest["counts"]["executed"] == 2
    assert manifest["store"] == str(store.path)
