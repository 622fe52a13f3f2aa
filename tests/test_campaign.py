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
from repro.sweep.chaos import CHAOS_ENV, ChaosPlan, Fault
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
            ["campaign", "run", *grid, "--store", str(store_dir)],
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
        assert default_manifest_path("campaign.jsonl") == Path(
            "campaign.manifest.json"
        )
        assert default_manifest_path("campaign.db") == Path(
            "campaign.db.manifest.json"
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
        assert got_b == ["cc", "dd"]  # alice's live leases are skipped

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
        leases.renew("aa", "alice", ttl_s=10.0)
        clock.now += 8.0  # 16s after claim, 8s after renewal: still live
        assert leases.claim(["aa"], "bob", ttl_s=10.0, limit=1) == []
        leases.renew("aa", "bob", ttl_s=100.0)  # not bob's to renew
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
    Path(out_path).write_text(json.dumps(report.to_dict()))


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
