"""Spec execution and parallel sweep fan-out.

:func:`execute_spec` turns one :class:`~repro.sweep.spec.RunSpec` into a
:class:`~repro.sim.metrics.RunSummary` — generate the workload from the
spec's seed, build the configured simulator, run, summarize, and compute
any requested ``collect`` metrics into ``summary.extra``.

:class:`SweepRunner` maps that over many specs, optionally across the
pipe-based :class:`~repro.sweep.resilience.WorkerPool` (``jobs > 1``;
one pool per runner, forked by the first call that needs it) and
optionally against a :class:`~repro.sweep.store.ResultStore`
(``resume=True`` skips specs whose hash already has a stored summary).  Because a spec fully determines its
run and workers share no mutable state, the parallel fan-out is
bit-identical to the serial loop — the determinism regression in
tests/test_sweep.py asserts exactly that.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import random
import sys
import time
import traceback as traceback_module
import weakref
from collections.abc import Callable, Iterable, Iterator, Mapping
from pathlib import Path

from ..experiments.common import (
    SCALES,
    ExperimentScale,
    make_topology,
    run_system,
    sim_config,
)
from ..sim.config import (
    EpochConfig,
    epoch_config_for_reconfiguration_delay,
    epoch_config_without_piggyback,
)
from ..sim.failures import (
    Direction,
    FailurePlan,
    LinkFailureModel,
    LinkRef,
    random_failure_plan,
)
from ..sim.flows import FlowTracker
from ..sim.metrics import RunSummary
from ..telemetry import events as telemetry_events
from ..telemetry import runtime as telemetry_runtime
from ..telemetry.engine import DEFAULT_CADENCE_NS
from ..telemetry.heartbeat import HeartbeatAggregator
from ..telemetry.progress import ProgressReporter
from . import chaos, scenarios
from .resilience import (
    NO_RETRY,
    ON_ERROR_MODES,
    Attempt,
    QuarantineLog,
    RetryPolicy,
    SpecOutcome,
    WorkerPool,
    default_quarantine_path,
    run_with_retries,
)
from .spec import RunSpec
from .store import ResultStore


def scale_spec_fields(scale: ExperimentScale) -> dict:
    """RunSpec constructor kwargs pinning one scale.

    Registered scales are referenced by name; ad-hoc scales (test fixtures,
    custom fabrics) additionally embed their fabric shape so the spec is
    self-contained and its content hash covers the real geometry.
    """
    if SCALES.get(scale.name) == scale:
        return {"scale": scale.name}
    return {
        "scale": scale.name,
        "scale_params": {
            "name": scale.name,
            "num_tors": scale.num_tors,
            "ports_per_tor": scale.ports_per_tor,
            "awgr_ports": scale.awgr_ports,
            "duration_ns": scale.duration_ns,
            "max_flow_bytes": scale.max_flow_bytes,
            "seed": scale.seed,
        },
    }


def resolve_scale(spec: RunSpec) -> ExperimentScale:
    """The scale a spec runs at (inline shape beats the name registry)."""
    if spec.scale_params:
        return ExperimentScale(**dict(spec.scale_params))
    try:
        return SCALES[spec.scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {spec.scale!r}; choose from {sorted(SCALES)} "
            "or embed scale_params (see scale_spec_fields)"
        ) from None


UPLINK_GBPS = 100.0
"""Every scale runs 100 Gbps uplinks (sim_config pins the same value)."""


def resolve_epoch(
    spec: RunSpec, scale: ExperimentScale
) -> EpochConfig | None:
    """The epoch configuration a spec's ``epoch_params`` describe.

    Plain keys replace :class:`EpochConfig` fields directly; the derived
    knobs ``reconfiguration_delay_ns`` (Fig 8) and ``piggyback=False``
    (Table 2) need the fabric's predefined-phase length and are applied on
    top, in that order.  Returns None when the spec has no overrides.
    """
    params = dict(spec.epoch_params)
    if not params:
        return None
    piggyback = params.pop("piggyback", True)
    reconfiguration_ns = params.pop("reconfiguration_delay_ns", None)
    unknown = set(params) - {
        f.name for f in dataclasses.fields(EpochConfig)
    }
    if unknown:
        raise ValueError(
            f"unknown epoch_params key(s): {sorted(unknown)}"
        )
    epoch = dataclasses.replace(EpochConfig(), **params)
    if reconfiguration_ns is not None or not piggyback:
        slots = make_topology(scale, spec.topology).predefined_slots
        if reconfiguration_ns is not None:
            epoch = epoch_config_for_reconfiguration_delay(
                epoch, reconfiguration_ns, UPLINK_GBPS, slots
            )
        if not piggyback:
            epoch = epoch_config_without_piggyback(epoch, UPLINK_GBPS, slots)
    return epoch


def resolve_failures(
    spec: RunSpec, scale: ExperimentScale
) -> tuple[LinkFailureModel | None, FailurePlan | None]:
    """(failure model, failure plan) from a spec's ``failure_params``.

    ``plan="random"`` fails a fraction of all directed fibers at one instant
    and repairs them later (Fig 10); ``plan="egress-ports"`` kills the first
    ``ports`` egress fibers of one ToR (Fig 19).  ``detect_epochs`` sets the
    model's detection lag.
    """
    params = dict(spec.failure_params)
    if not params:
        return None, None
    try:
        kind = params.pop("plan")
    except KeyError:
        raise ValueError("failure_params needs a 'plan' key") from None
    model = LinkFailureModel(
        scale.num_tors,
        scale.ports_per_tor,
        detect_epochs=params.pop("detect_epochs", 3),
    )
    if kind == "random":
        required = {"ratio", "fail_at_ns", "repair_at_ns"}
        unknown = set(params) - required - {"seed"}
        if unknown:
            raise ValueError(
                f"unknown failure_params key(s) for 'random': "
                f"{sorted(unknown)}"
            )
        missing = required - set(params)
        if missing:
            raise ValueError(
                f"failure_params plan 'random' needs {sorted(missing)}"
            )
        plan, _failed = random_failure_plan(
            scale.num_tors,
            scale.ports_per_tor,
            params["ratio"],
            params["fail_at_ns"],
            params["repair_at_ns"],
            random.Random(params.get("seed", 0)),
        )
    elif kind == "egress-ports":
        unknown = set(params) - {"tor", "ports", "at_ns"}
        if unknown:
            raise ValueError(
                f"unknown failure_params key(s) for 'egress-ports': "
                f"{sorted(unknown)}"
            )
        if "ports" not in params:
            raise ValueError("failure_params plan 'egress-ports' needs 'ports'")
        plan = FailurePlan()
        tor = params.get("tor", 0)
        for port in range(params["ports"]):
            plan.add_failure(
                params.get("at_ns", 0.0), LinkRef(tor, port, Direction.EGRESS)
            )
    else:
        raise ValueError(
            f"unknown failure plan {kind!r}; choose 'random' or 'egress-ports'"
        )
    return model, plan


# ---------------------------------------------------------------------------
# collectors: extra metrics computed from the finished run's artifacts
# ---------------------------------------------------------------------------

Collector = Callable[..., object]

COLLECTORS: dict[str, Collector] = {}


def collector(name: str):
    """Register a ``collect`` metric: (artifacts, spec, scale, params) -> JSONable."""

    def wrap(fn: Collector) -> Collector:
        if name in COLLECTORS:
            raise ValueError(f"collector {name!r} already registered")
        COLLECTORS[name] = fn
        return fn

    return wrap


@collector("mice_cdf")
def _collect_mice_cdf(artifacts, spec, scale, params) -> dict:
    """The Fig 6 observable: empirical mice-FCT CDF plus the epoch length."""
    sim = artifacts.simulator
    mice = sim.tracker.mice_flows(sim.config.mice_threshold_bytes)
    values_ns, fractions = FlowTracker.fct_cdf(mice)
    return {
        "values_us": [float(v) / 1e3 for v in values_ns],
        "fractions": [float(f) for f in fractions],
        "epoch_us": sim.timing.epoch_ns / 1e3,
    }


@collector("incast_finish_ns")
def _collect_incast_finish(artifacts, spec, scale, params) -> float:
    """The Fig 7a observable: last incast flow completion minus injection."""
    from ..workloads.incast import incast_finish_time_ns

    return float(
        incast_finish_time_ns(artifacts.simulator.tracker.flows, params["at_ns"])
    )


@collector("alltoall_goodput_gbps")
def _collect_alltoall_goodput(artifacts, spec, scale, params) -> float:
    """The Fig 7b observable: per-ToR received goodput over the transfer."""
    sim = artifacts.simulator
    if not sim.tracker.all_complete:
        raise RuntimeError("all-to-all transfer did not finish")
    finish_ns = max(f.completed_ns for f in sim.tracker.flows)
    duration = finish_ns - params["at_ns"]
    return sim.tracker.delivered_bytes * 8.0 / duration / scale.num_tors


@collector("tag_finish_ns")
def _collect_tag_finish(artifacts, spec, scale, params) -> dict:
    """Per-tag last completion time — collective phase/round finish times."""
    finish: dict[str, float] = {}
    for flow in artifacts.simulator.tracker.flows:
        if flow.completed:
            tag = flow.tag or "untagged"
            finish[tag] = max(finish.get(tag, 0.0), flow.completed_ns)
    return finish


@collector("fault_bw_ratios")
def _collect_fault_bw_ratios(artifacts, spec, scale, params) -> dict:
    """The Fig 10 observables: bandwidth through failure and recovery.

    Windowed delivered bytes per ns around the spec's failure plan:
    ``drop`` = during-failure / pre-failure, ``recovery`` = during-failure /
    post-recovery.  ``margin_ns`` (instrument) trims the transients around
    each transition.
    """
    recorder = artifacts.bandwidth
    failure = dict(spec.failure_params)
    margin = dict(spec.instrument)["margin_ns"]
    fail_at = failure["fail_at_ns"]
    repair_at = failure["repair_at_ns"]
    duration = spec.duration_ns

    def window(start: float, end: float) -> float:
        return sum(
            recorder.window_bytes(("rx", dst), start, end)
            for dst in range(scale.num_tors)
        ) / (end - start)

    pre = window(margin, fail_at)
    during = window(fail_at + margin, repair_at)
    post = window(repair_at + margin, duration - margin)
    return {"drop": during / pre, "recovery": during / post}


@collector("match_ratio_series")
def _collect_match_ratio_series(artifacts, spec, scale, params) -> dict:
    """The Fig 14 observable: per-epoch match ratios (finite) plus the mean."""
    recorder = artifacts.match_recorder
    ratios = recorder.ratios()
    import numpy as np

    finite = ratios[~np.isnan(ratios)]
    return {
        "ratios": [float(r) for r in finite],
        "mean": recorder.mean_ratio(),
    }


@collector("first_rx_byte_ns")
def _collect_first_rx_byte(artifacts, spec, scale, params) -> float | None:
    """The Fig 17 observable: when the destination first hears payload."""
    dst = params.get("dst", 0)
    at_ns = params["at_ns"]
    bin_ns = dict(spec.instrument)["bandwidth_bin_ns"]
    times, gbps = artifacts.bandwidth.series_gbps(("rx", dst))
    for t, v in zip(times, gbps):
        if v > 0 and t >= at_ns - bin_ns:
            return float(t)
    return None


@collector("rx_relay_split_gbps")
def _collect_rx_relay_split(artifacts, spec, scale, params) -> dict:
    """The Fig 18 observable: wanted vs relayed Gbps at receiver ToR 0."""
    sim = artifacts.simulator
    finish_ns = max(f.completed_ns for f in sim.tracker.flows)
    duration = finish_ns - params["at_ns"]
    dst = 0
    recorder = artifacts.bandwidth
    return {
        "wanted": recorder.total_bytes(("rx", dst)) * 8.0 / duration,
        "relayed": recorder.total_bytes(("relay", dst)) * 8.0 / duration,
    }


@collector("pair_gbps_series")
def _collect_pair_gbps_series(artifacts, spec, scale, params) -> list[float]:
    """The Fig 19 observable: one pair's per-bin bandwidth occupation."""
    _times, gbps = artifacts.bandwidth.series_gbps(
        ("pair", params["src"], params["dst"]), until_ns=spec.duration_ns
    )
    return [float(v) for v in gbps]


@collector("incast_mix_stats")
def _collect_incast_mix_stats(artifacts, spec, scale, params) -> dict:
    """The Fig 13a observables: background mice FCT and incast finish times."""
    from collections import defaultdict

    import numpy as np

    from ..workloads.incast import BACKGROUND_TAG, INCAST_TAG

    sim = artifacts.simulator
    tracker = sim.tracker
    background_mice = tracker.mice_flows(
        sim.config.mice_threshold_bytes, tag=BACKGROUND_TAG
    )
    bg_p99_ns = (
        float(FlowTracker.fct_percentile_ns(background_mice, 99))
        if background_mice
        else None
    )
    events = defaultdict(list)
    for flow in tracker.flows_with_tag(INCAST_TAG):
        events[flow.arrival_ns].append(flow)
    finish_times = [
        max(f.completed_ns for f in group) - at
        for at, group in events.items()
        if all(f.completed for f in group)
    ]
    mean_finish_ns = float(np.mean(finish_times)) if finish_times else None
    return {
        "bg_mice_fct_p99_ns": bg_p99_ns,
        "incast_mean_finish_ns": mean_finish_ns,
    }


# ---------------------------------------------------------------------------
# single-spec execution
# ---------------------------------------------------------------------------


def execute_spec(spec: RunSpec) -> RunSummary:
    """Run one spec to completion and return its summary.

    Delegates the actual run to :func:`~repro.experiments.common.run_system`,
    the one run path of every registered system, after resolving what
    needs the scale or the runner's own registries (scenario, epoch and
    failure parameters, ``collect`` names); RunSpec construction has
    already checked the spec against its system.  Module-level (and
    argument-picklable) so a process pool can ship it to workers
    unchanged.

    When the ``REPRO_TELEMETRY`` environment channel is active (DESIGN.md
    §14) an engine tracer is attached to the run — the env var is how the
    setting reaches both this process and forked pool workers identically.
    Telemetry is runtime configuration, never spec content: hashes and
    summaries are unchanged by it.
    """
    tracer = telemetry_runtime.engine_tracer(spec.content_hash, spec.system)
    scale = resolve_scale(spec)
    scenario = scenarios.get(spec.scenario)
    params = scenario.resolve_params(dict(spec.scenario_params))
    for name in spec.collect:
        if name not in COLLECTORS:
            raise ValueError(
                f"unknown collect metric {name!r}; "
                f"choose from {sorted(COLLECTORS)}"
            )

    flows = (
        scenarios.build_workload_iter(spec, scale, params)
        if spec.stream
        else scenarios.build_workload(spec, scale, params)
    )
    epoch = resolve_epoch(spec, scale)
    overrides: dict = {"priority_queue_enabled": spec.priority_queue}
    if epoch is not None:
        overrides["epoch"] = epoch
    config = sim_config(scale, **overrides)
    if spec.without_speedup:
        config = config.without_speedup()
    failure_model, failure_plan = resolve_failures(spec, scale)
    artifacts = run_system(
        spec.system,
        scale,
        spec.topology,
        flows,
        config=config,
        duration_ns=spec.duration_ns,
        scheduler=spec.scheduler,
        params=spec.system_params(),
        instrument=dict(spec.instrument),
        failure_model=failure_model,
        failure_plan=failure_plan,
        until_complete=spec.until_complete,
        max_ns=spec.max_ns,
        stream=spec.stream,
        tracer=tracer,
    )

    summary = artifacts.summary
    # Which core actually ran is observability, not spec content: it
    # lands in ``extra`` (never in the engine's own summary()) so the
    # cross-core parity suites can keep comparing summaries verbatim.
    summary.extra["core_used"] = artifacts.simulator.core_used
    if tracer is not None:
        tracer.finish(int(artifacts.simulator.now_ns))
    for name in spec.collect:
        summary.extra[name] = COLLECTORS[name](artifacts, spec, scale, params)
    return summary


def _timed_execute(
    spec: RunSpec, attempt: int = 1
) -> tuple[str, RunSummary, float]:
    """Execute one spec attempt, timed — the single execution funnel.

    Both the serial loop and the resilient worker pool come through here,
    which is where chaos faults (:mod:`repro.sweep.chaos`) are injected:
    a fault plan in the environment poisons chosen (spec, attempt) pairs
    identically whichever path runs them.
    """
    started = time.perf_counter()
    chaos.maybe_inject(spec.content_hash, attempt)
    summary = execute_spec(spec)
    return spec.content_hash, summary, time.perf_counter() - started


def _fork_state() -> tuple:
    """What a forked pool worker inherits that a spec's execution reads.

    The ``REPRO_*`` environment (chaos plan, telemetry channel, core,
    scale) and the scenario and collector registries, which register
    entries at run time.  The entries themselves are held, so one
    replaced under the same name compares unequal.
    """
    return (
        sorted(
            (key, value)
            for key, value in os.environ.items()
            if key.startswith("REPRO_")
        ),
        list(scenarios.SCENARIOS.items()),
        list(COLLECTORS.items()),
    )


# ---------------------------------------------------------------------------
# the sweep runner
# ---------------------------------------------------------------------------


class SweepRunner:
    """Executes spec batches with optional parallelism, caching, and resume.

    ``jobs=1`` (the default) runs serially in-process — the reference
    behavior.  With ``jobs > 1`` pending specs fan out over a process pool.
    A ``store`` persists every computed summary; with ``resume=True``,
    specs whose content hash is already stored are served from the store
    without running a simulation.

    Every result this runner computes or fetches is also memoized
    in-process, so a spec shared by several experiments (``repro run
    --all`` hands one runner to every experiment) executes exactly once
    even without a store.

    After (any number of) :meth:`run` calls, ``executed`` counts the
    simulations actually performed and ``cached`` the store/memo hits —
    the observability the "a rerun executes zero simulations" contract is
    tested against.  ``requested`` holds every hash this runner was asked
    for; :meth:`stale_stored_hashes` diffs the store against it to surface
    rows stranded by spec changes.

    Fault tolerance (DESIGN.md §13).  ``retry`` is a
    :class:`~repro.sweep.resilience.RetryPolicy` (default: one attempt);
    ``timeout_s`` is a per-spec wall-clock deadline, enforced by killing
    the worker process — so setting it routes execution through the
    resilient worker pool even at ``jobs=1``.  ``on_error`` decides what
    happens when a spec exhausts its attempts:

    * ``"fail"`` (default) — raise; serial single-attempt execution
      re-raises the original exception, the pool raises
      :class:`~repro.sweep.resilience.SweepExecutionError`.
    * ``"skip"`` — record the :class:`SpecOutcome` and keep going; the
      spec is absent from the returned results.
    * ``"quarantine"`` — like skip, and additionally append the spec,
      outcome, and traceback to the quarantine sidecar JSONL
      (``quarantine`` path, defaulting to the store's
      ``*.quarantine.jsonl`` sibling).

    ``outcomes`` maps every executed spec hash to its
    :class:`SpecOutcome`; :meth:`failed_hashes` filters the failures.
    Worker crashes and timeouts never abort the sweep: the pool respawns
    the dead worker and requeues only the in-flight spec.

    The runner holds at most one worker pool, forked by the first
    :meth:`run` that needs one and reused by later calls; it is re-forked
    when what its workers inherited has changed (:func:`_fork_state`).
    :meth:`close` (or leaving a ``with`` block) shuts it down, as does
    dropping the runner; the runner stays usable after :meth:`close`.

    Telemetry (DESIGN.md §14).  ``telemetry`` is a JSONL path: engine
    tracers (activated through the environment so forked workers see
    them), worker heartbeats, and campaign/spec lifecycle events all
    append to it.  ``progress=True`` renders the live stderr
    progress/ETA line.  Both are off by default and purely
    observational — results and spec hashes are bit-identical either
    way.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: ResultStore | None = None,
        resume: bool = False,
        verbose: bool = False,
        timeout_s: float | None = None,
        retry: RetryPolicy | None = None,
        on_error: str = "fail",
        quarantine: str | QuarantineLog | None = None,
        telemetry: str | Path | None = None,
        telemetry_cadence_ns: int = DEFAULT_CADENCE_NS,
        progress: bool = False,
        heartbeat_s: float = 1.0,
        worker: str | None = None,
        on_worker_heartbeat: Callable[[str], None] | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if resume and store is None:
            raise ValueError("resume requires a result store")
        if timeout_s is not None and not 0 < timeout_s < math.inf:
            raise ValueError("timeout_s must be positive and finite")
        if on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"unknown on_error mode {on_error!r}; "
                f"choose from {ON_ERROR_MODES}"
            )
        self.jobs = jobs
        self.store = store
        self.resume = resume
        self.verbose = verbose
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else NO_RETRY
        self.on_error = on_error
        if on_error == "quarantine" and quarantine is None:
            if store is None:
                raise ValueError(
                    "on_error='quarantine' needs a quarantine path "
                    "(or a store to derive one from)"
                )
            quarantine = default_quarantine_path(store.path)
        self.quarantine: QuarantineLog | None = (
            quarantine
            if quarantine is None or isinstance(quarantine, QuarantineLog)
            else QuarantineLog(quarantine)
        )
        if heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        if telemetry_cadence_ns <= 0:
            raise ValueError("telemetry_cadence_ns must be positive")
        self.telemetry_path = Path(telemetry) if telemetry is not None else None
        self.telemetry_cadence_ns = telemetry_cadence_ns
        self.progress = progress
        self.heartbeat_s = heartbeat_s
        self._writer = (
            telemetry_events.TelemetryWriter(self.telemetry_path)
            if self.telemetry_path is not None
            else None
        )
        self._reporter: ProgressReporter | None = None
        self._aggregator: HeartbeatAggregator | None = None
        # Campaign lease mode (DESIGN.md §17): ``worker`` names this
        # runner in heartbeats, telemetry, and the manifest, and
        # ``on_worker_heartbeat(spec_hash)`` fires on every liveness
        # signal so the campaign layer can renew its lease on the spec.
        self.worker = worker
        self.on_worker_heartbeat = on_worker_heartbeat
        self.campaign_id = f"{int(time.time()):x}-{os.getpid():x}"
        self.started_at = time.time()
        self.executed = 0
        self.cached = 0
        self.requested: set[str] = set()
        self.specs: dict[str, RunSpec] = {}
        self.cached_hashes: set[str] = set()
        self.outcomes: dict[str, SpecOutcome] = {}
        self._memo: dict[str, RunSummary] = {}
        self._stored: dict[str, RunSummary] | None = None
        self._pool: WorkerPool | None = None
        self._pool_state: tuple | None = None
        self._pool_finalizer: weakref.finalize | None = None
        self._in_session = False

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool, if one is running (idempotent)."""
        if self._pool is not None:
            self._pool_finalizer()
            self._pool = None

    def run(
        self,
        specs: Iterable[RunSpec],
        stored: Mapping[str, RunSummary] | None = None,
        more: Callable[[], list[RunSpec]] | None = None,
    ) -> dict[str, RunSummary]:
        """Run (or fetch) every spec; returns {content_hash: summary}.

        Duplicate specs collapse to one run.  Results are keyed by hash so
        callers recover per-spec summaries regardless of execution order.
        ``stored`` serves its specs instead of the resume snapshot: the
        lease loop passes the store as it last read it.  ``more()``, when
        given, is asked for further specs to execute whenever a worker
        would idle, until it returns none: the lease loop feeds its claims
        this way, so no worker waits for the slowest spec of a batch.
        """
        ordered: list[RunSpec] = []
        seen: set[str] = set()
        for spec in specs:
            if spec.content_hash not in seen:
                seen.add(spec.content_hash)
                ordered.append(spec)
                self.specs.setdefault(spec.content_hash, spec)
        self.requested.update(seen)

        results: dict[str, RunSummary] = {}
        with self.session(len(ordered)):
            if stored is None:
                # Parsed once per runner, not once per run() call: this
                # runner's own appends land in the memo, consulted first,
                # so the snapshot never goes stale.
                if self.resume and self._stored is None:
                    self._stored = self.store.load()
                stored = self._stored if self.resume else {}
            pending: list[RunSpec] = []
            for spec in ordered:
                hit = self._memo.get(spec.content_hash)
                if hit is None:
                    hit = stored.get(spec.content_hash)
                if hit is not None:
                    results[spec.content_hash] = hit
                    self._memo[spec.content_hash] = hit
                    self.cached += 1
                    self.cached_hashes.add(spec.content_hash)
                    self._log(spec, "cached")
                    if self._reporter is not None:
                        self._reporter.spec_cached()
                    self._emit_spec_end(spec, "cached", 0, 0.0, cached=True)
                else:
                    pending.append(spec)

            feed = None
            if more is not None:
                def feed() -> list[RunSpec]:
                    batch = more()
                    for spec in batch:
                        self.specs.setdefault(spec.content_hash, spec)
                        self.requested.add(spec.content_hash)
                    return batch

            # A per-spec timeout can only be enforced by killing the worker
            # process, so it forces pool execution even at jobs=1; otherwise
            # a single pending spec (or jobs=1) runs serially in-process, the
            # reference behavior.
            use_pool = bool(pending) and (
                self.timeout_s is not None
                or (self.jobs > 1 and (len(pending) > 1 or feed is not None))
            )
            if use_pool:
                self._run_pool(pending, results, feed)
            else:
                while pending:
                    for spec in pending:
                        summary = self._run_one(spec)
                        if summary is not None:
                            results[spec.content_hash] = summary
                    pending = feed() if feed is not None else []
        return results

    def restore(self, spec: RunSpec) -> bool:
        """Store again the summary this runner holds for ``spec``, if any.

        The lease loop's answer to a row that did not read back (a torn
        append, a store deleted under it): the spec is neither run again
        nor served as cached while the store lacks it.
        """
        summary = self._memo.get(spec.content_hash)
        if summary is not None:
            self.store.put(spec, summary)
        return summary is not None

    @contextlib.contextmanager
    def session(self, total: int) -> Iterator[None]:
        """One progress line, telemetry activation and campaign-start/
        -end event pair around every :meth:`run` inside it.

        A :meth:`run` outside a session opens its own; the lease loop
        opens one around all of its rounds.
        """
        if self._in_session:
            yield
            return
        self._in_session = True
        telemetry_on = self._writer is not None
        # Activate the env channel so engine tracers attach in-process
        # *and* in forked pool workers; restored on the way out so a
        # runner never leaks configuration into its host process.
        env_previous = (
            telemetry_runtime.activate(
                self.telemetry_path, cadence_ns=self.telemetry_cadence_ns
            )
            if telemetry_on
            else None
        )
        if self.progress:
            self._reporter = ProgressReporter(total)
        if self.progress or telemetry_on:
            self._aggregator = HeartbeatAggregator()
        started = time.time()
        worker_field = (
            {"worker": self.worker} if self.worker is not None else {}
        )
        if self._writer is not None:
            self._writer.emit(telemetry_events.make_event(
                telemetry_events.CAMPAIGN_START,
                campaign=self.campaign_id,
                total_specs=total,
                jobs=self.jobs,
                **worker_field,
            ))
        try:
            yield
        finally:
            self._in_session = False
            if telemetry_on:
                telemetry_runtime.deactivate(env_previous)
            if self._writer is not None:
                retried = sum(
                    1 for o in self.outcomes.values() if o.attempts > 1
                )
                self._writer.emit(telemetry_events.make_event(
                    telemetry_events.CAMPAIGN_END,
                    campaign=self.campaign_id,
                    executed=self.executed,
                    cached=self.cached,
                    failed=len(self.failed_hashes()),
                    retried=retried,
                    quarantined=len(self.quarantined_hashes()),
                    elapsed_s=time.time() - started,
                    **worker_field,
                ))
            if self._reporter is not None:
                self._reporter.close()
                self._reporter = None
            self._aggregator = None

    def stale_stored_hashes(self) -> set[str]:
        """Stored hashes no :meth:`run` call ever requested.

        After a resumed sweep, these are rows stranded by changed scenario
        parameters (or schema bumps) — they can never be served again by
        the grid that was just run, so callers should report them rather
        than let the re-runs pass silently.
        """
        if self.store is None:
            return set()
        return self.store.completed_hashes() - self.requested

    def failed_hashes(self) -> set[str]:
        """Hashes whose final outcome was not ok (skipped/quarantined)."""
        return {
            spec_hash
            for spec_hash, outcome in self.outcomes.items()
            if not outcome.ok
        }

    def quarantined_hashes(self) -> set[str]:
        """Failed hashes that were written to the quarantine sidecar."""
        return self.failed_hashes() if self.quarantine is not None else set()

    def build_manifest(self, ended_at: float | None = None) -> dict:
        """The campaign manifest for everything this runner has run."""
        from ..telemetry.manifest import build_manifest

        return build_manifest(
            campaign=self.campaign_id,
            started_at=self.started_at,
            ended_at=ended_at if ended_at is not None else time.time(),
            specs=self.specs,
            outcomes=self.outcomes,
            cached_hashes=self.cached_hashes,
            quarantined_hashes=self.quarantined_hashes(),
            jobs=self.jobs,
            store_path=str(self.store.path) if self.store is not None else None,
            worker=self.worker,
        )

    def _emit_spec_end(
        self,
        spec: RunSpec,
        status: str,
        attempts: int,
        elapsed: float,
        *,
        cached: bool,
    ) -> None:
        if self._writer is None:
            return
        self._writer.emit(telemetry_events.make_event(
            telemetry_events.SPEC_END,
            spec=spec.content_hash,
            label=spec.label(),
            status=status,
            attempts=attempts,
            elapsed_s=elapsed,
            cached=cached,
        ))

    def _record_ok(
        self, spec: RunSpec, summary: RunSummary, elapsed: float
    ) -> None:
        """Common bookkeeping for one successfully executed spec."""
        self._memo[spec.content_hash] = summary
        self.executed += 1
        if self.store is not None:
            self.store.put(spec, summary, elapsed_s=elapsed)
        self._log(spec, f"ran in {elapsed:.2f}s")
        outcome = self.outcomes.get(spec.content_hash)
        attempts = outcome.attempts if outcome is not None else 1
        if self._aggregator is not None:
            self._aggregator.forget(spec.content_hash)
        if self._reporter is not None:
            self._reporter.spec_finished(attempts=attempts)
        self._emit_spec_end(spec, "ok", attempts, elapsed, cached=False)

    def _record_failure(self, spec: RunSpec, outcome: SpecOutcome) -> None:
        """A spec exhausted its attempts under skip/quarantine."""
        quarantined = self.quarantine is not None
        self._log(
            spec,
            f"{outcome.status} after {outcome.attempts} attempt(s)"
            + (" -> quarantined" if quarantined else ""),
        )
        if quarantined:
            self.quarantine.put(spec, outcome)
        if self._aggregator is not None:
            self._aggregator.forget(spec.content_hash)
        if self._reporter is not None:
            self._reporter.spec_finished(
                attempts=outcome.attempts,
                status="quarantined" if quarantined else outcome.status,
            )
        self._emit_spec_end(
            spec,
            outcome.status,
            outcome.attempts,
            sum(outcome.elapsed_s),
            cached=False,
        )

    def _signal_liveness(self, spec_hash: str) -> None:
        """Tell the campaign layer this spec is alive (lease renewal).

        A renewal failure (a briefly locked lease table, a vanished
        sidecar) must never kill the sweep that is making progress — the
        worst case is the lease expiring and another worker redundantly
        re-executing a spec, which content-hash dedupe makes harmless.
        """
        if self.on_worker_heartbeat is None:
            return
        try:
            self.on_worker_heartbeat(spec_hash)
        except Exception as exc:  # noqa: BLE001 — observability only
            print(
                f"warning: lease heartbeat for {spec_hash[:12]} failed: {exc}",
                file=sys.stderr,
            )

    def _run_one(self, spec: RunSpec) -> RunSummary | None:
        """Serial in-process execution with retries and backoff.

        With the default policy (one attempt, on_error="fail") this is
        exactly the legacy behavior: execute, record, re-raise errors
        unchanged.  Timeouts are not enforceable in-process — that is
        what the worker pool is for — so ``timeout_s`` never routes here.
        Returns None when the spec fails under "skip"/"quarantine".
        """
        history: list[Attempt] = []
        attempt = 1
        while True:
            # Serial execution has no heartbeat thread, so leases renew
            # at attempt boundaries only; campaign docs tell serial
            # workers to size lease_ttl_s beyond their slowest spec.
            self._signal_liveness(spec.content_hash)
            started = time.perf_counter()
            try:
                _, summary, elapsed = _timed_execute(spec, attempt=attempt)
            except Exception as exc:
                history.append(
                    Attempt(
                        "failed",
                        time.perf_counter() - started,
                        f"{type(exc).__name__}: {exc}",
                        traceback_module.format_exc(),
                    )
                )
                if attempt < self.retry.max_attempts:
                    self._log(spec, f"attempt {attempt} failed, retrying")
                    time.sleep(
                        self.retry.delay_s(attempt, spec.content_hash)
                    )
                    attempt += 1
                    continue
                outcome = SpecOutcome.from_attempts(
                    spec.content_hash, history
                )
                self.outcomes[spec.content_hash] = outcome
                if self.on_error == "fail":
                    raise
                self._record_failure(spec, outcome)
                return None
            history.append(Attempt("ok", elapsed))
            self.outcomes[spec.content_hash] = SpecOutcome.from_attempts(
                spec.content_hash, history
            )
            self._record_ok(spec, summary, elapsed)
            return summary

    def _run_pool(
        self,
        pending: list[RunSpec],
        results: dict[str, RunSummary],
        more: Callable[[], list[RunSpec]] | None,
    ) -> None:
        """Fan pending specs, and any ``more()`` feeds, over the crash-safe
        worker pool."""

        def on_ok(spec: RunSpec, summary_dict: dict, outcome) -> None:
            summary = RunSummary.from_dict(summary_dict)
            results[spec.content_hash] = summary
            self._record_ok(spec, summary, outcome.elapsed_s[-1])

        def on_heartbeat(spec: RunSpec, payload: dict) -> None:
            self._signal_liveness(spec.content_hash)
            if self.worker is not None:
                payload = {**payload, "worker": self.worker}
            if self._aggregator is not None:
                self._aggregator.record(payload)
            if self._reporter is not None:
                self._reporter.set_running(len(
                    self._aggregator.running(
                        stale_after_s=4 * self.heartbeat_s
                    )
                ))
                self._reporter.heartbeat()
            if self._writer is not None:
                self._writer.emit(telemetry_events.make_event(
                    telemetry_events.HEARTBEAT_EVENT, **payload
                ))

        # Heartbeats cost a timer thread per busy worker; only ask for
        # them when something consumes them (a reporter, a telemetry
        # sink, or a campaign lease waiting to be renewed).
        fleet_telemetry = (
            self._reporter is not None
            or self._writer is not None
            or self.on_worker_heartbeat is not None
        )
        pool = self._pool_for(
            self.jobs if more is not None else len(pending),
            self.heartbeat_s if fleet_telemetry else None,
        )
        run_with_retries(
            pending,
            pool=pool,
            policy=self.retry,
            timeout_s=self.timeout_s,
            on_error=self.on_error,
            on_ok=on_ok,
            on_exhausted=self._record_failure,
            outcomes=self.outcomes,
            on_heartbeat=on_heartbeat if fleet_telemetry else None,
            more=more,
        )

    def _pool_for(
        self, pending: int, heartbeat_s: float | None
    ) -> WorkerPool:
        """The runner's one pool, sized for ``pending`` specs.

        Forked with no more workers than the pending specs can use and
        grown toward ``jobs`` by later, larger calls.  A pooled spec must
        see what a worker forked now would see, so a pool whose inherited
        state is out of date is shut down and forked afresh, as is one
        an exception left closed.
        """
        state = _fork_state()
        if self._pool is not None and (
            self._pool.closed or state != self._pool_state
        ):
            self.close()
        workers = min(self.jobs, pending)
        if self._pool is None:
            self._pool = WorkerPool(workers, heartbeat_s=heartbeat_s)
            self._pool_state = state
            # Reaps the workers of a runner dropped without close().
            self._pool_finalizer = weakref.finalize(self, self._pool.shutdown)
        else:
            self._pool.grow(workers)
        return self._pool

    def _log(self, spec: RunSpec, status: str) -> None:
        # Always stderr: stdout belongs to the command's payload (tables,
        # `--json` documents) and progress must never corrupt a pipe.
        if self.verbose:
            print(
                f"[{spec.short_hash}] {spec.label()}: {status}",
                file=sys.stderr,
            )
