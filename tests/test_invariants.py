"""Engine invariants, checked on every registered system.

The paper's comparisons between systems hold only if every engine
conserves bytes and gives the same run in every execution mode it
offers.  The engine list is read from ``SYSTEMS`` when the tests are
collected: every entry on every fabric in ``TOPOLOGIES`` that its engine
accepts (an engine refuses a fabric by raising when it is built), once
per core it runs on, each built through the entry's own ``build`` as
``run_system`` builds it; a test fails unless the accepted fabrics are
exactly the ones each entry registers, and every core is in the list.
The entry's capability fields gate each property, so a new registry
entry is checked with no test edit:

* **conservation** — after every ``step()``, delivered plus queued bytes
  equal the bytes of the flows that have arrived by the kernel's
  injection bound, and queued bytes what those flows have left, also
  under a failure plan where the entry takes one;
* **streaming equals materialized** — where the entry takes
  ``stream=True`` (DESIGN.md section 11);
* **bounded streaming residency** — there too, a streamed trace runs to
  completion holding a small fraction of its flows in flight;
* **fast-forward on equals off** — through either run loop, the same
  steps, summary and per-flow FCTs, and with a tracer attached the same
  run-end counter totals (DESIGN.md section 7);
* **idle runs count every step** — an empty fabric covers the run limit
  in whole steps, all skipped with fast-forward and all stepped without
  it, and the tracer counts each one.

Hypothesis does not shrink a failing example here: each one is two to
four full engine runs, so a report shows the example as generated.

``REPRO_CORE`` is cleared for the whole module, so every core runs here
whatever it is set to.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.experiments.common import (
    MICRO,
    SYSTEMS,
    TOPOLOGIES,
    make_topology,
    sim_config,
)
from repro.sim.config import CORE_ENV_VAR, CORES
from repro.sim.failures import (
    Direction,
    FailurePlan,
    LinkFailureModel,
    LinkRef,
    random_failure_plan,
)
from repro.sim.flows import Flow
from repro.sweep import RunSpec, build_workload, scale_spec_fields
from repro.telemetry import EngineTracer, MemorySink
from repro.workloads.distributions import FixedSize
from repro.workloads.streams import heavy_poisson_span_ns, heavy_poisson_stream

NUM_TORS = MICRO.num_tors
PORTS = MICRO.ports_per_tor
DURATION_NS = 60_000.0

PARAMS_VARIANTS = {
    "rotor": {"vlb_relay": False},
    "adaptive": {"recompute_slices": 1},
}
"""Non-default ``params`` the conservation check also runs: the rotor
without its VLB relay, and the adaptive engine re-matching at every
slice, so every checked boundary is also a reconfiguration."""


@dataclass(frozen=True)
class Engine:
    """One registry entry on one fabric and core."""

    system: str
    fabric: str
    core: str
    label: str = ""

    @property
    def entry(self):
        return SYSTEMS[self.system]

    def build(self, flows, *, seed=MICRO.seed, fast_forward=True,
              params=None, **engine):
        """The engine as ``run_system`` builds it: ``engine`` holds only
        the stream, tracer and failure options the check asks for."""
        config = sim_config(
            MICRO, seed=seed, core=self.core, idle_fast_forward=fast_forward
        )
        topology = make_topology(MICRO, self.fabric)
        return self.entry.build(
            config, topology, flows, "base", dict(params or {}), **engine
        )


def _engines() -> list[Engine]:
    """Every (entry, fabric, core) the registry's builders run.

    An engine with one path reports the same ``core_used`` whichever
    core its config names; an engine that refuses a fabric raises
    ValueError.
    """
    engines = []
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(CORE_ENV_VAR, raising=False)
        for system, fabric in itertools.product(SYSTEMS, TOPOLOGIES):
            cores = set()
            for core in set(CORES) - {"auto"}:
                try:
                    cores.add(Engine(system, fabric, core).build([]).core_used)
                except ValueError:
                    pass
            cores = sorted(cores)
            for core in cores:
                label = f"{system}-{core}" if len(cores) > 1 else system
                engines.append(
                    Engine(system, fabric, core, f"{label}-{fabric}")
                )
    return engines


ENGINES = _engines()


def _label(engine: Engine) -> str:
    return engine.label


def _examples(count: int) -> settings:
    """Hypothesis settings: ``count`` examples, none of them shrunk."""
    return settings(
        max_examples=count,
        deadline=None,
        phases=[phase for phase in Phase if phase is not Phase.shrink],
    )


def _flows(records, start_ns: float = 0.0) -> list[Flow]:
    """Fresh flows from drawn (src, dst offset, bytes, arrival) records,
    in arrival order, each arriving ``start_ns`` late."""
    flows = [
        Flow(fid, src, (src + offset) % NUM_TORS, size, start_ns + arrival)
        for fid, (src, offset, size, arrival) in enumerate(records)
    ]
    return sorted(flows, key=lambda flow: flow.arrival_ns)


@pytest.fixture(autouse=True, scope="module")
def _no_core_override():
    """Each configuration names its core; ``REPRO_CORE`` would override
    it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(CORE_ENV_VAR, raising=False)
        yield


def test_every_registered_fabric_and_core_is_checked():
    """A builder that stops accepting a fabric its entry registers, or a
    core that stops running, must fail here, not drop its cases; one
    that accepts a fabric no spec can reach must fail too."""
    checked = {(engine.system, engine.fabric) for engine in ENGINES}
    assert checked == {
        (system, fabric)
        for system, entry in SYSTEMS.items()
        for fabric in entry.topologies
    }
    cores = set(CORES) - {"auto"}
    assert {(e.fabric, e.core) for e in ENGINES} == set(
        itertools.product(TOPOLOGIES, cores)
    )


def test_params_variants_use_registered_keys():
    for system, params in PARAMS_VARIANTS.items():
        assert set(params) <= SYSTEMS[system].params_keys, system


# ---------------------------------------------------------------------------
# conservation after every step
# ---------------------------------------------------------------------------


MICRO_CASES = [
    ("poisson", 1, 1.0),
    ("poisson", 2, 0.5),
    ("hotspot", 3, 1.0),
    ("bursty", 4, 0.8),
    ("permutation", 5, 1.0),
    ("uncapped", 6, 0.8),
]
"""(scenario, seed, load) cases; "uncapped" is the poisson scenario over
the whole Hadoop CDF, past the micro scale's 100 KB flow cap."""


def _micro_trace(scenario: str, seed: int, load: float) -> list[Flow]:
    bursty = {"mean_on_ns": 10_000.0, "mean_off_ns": 20_000.0}
    scale = MICRO
    if scenario == "uncapped":
        scenario = "poisson"
        scale = dataclasses.replace(MICRO, max_flow_bytes=None)
    spec = RunSpec(
        **scale_spec_fields(scale),
        scenario=scenario,
        scenario_params=bursty if scenario == "bursty" else {},
        load=load,
        seed=seed,
        duration_ns=DURATION_NS,
    )
    flows = build_workload(spec, scale)
    assert flows, "an empty trace would make the check vacuous"
    if scale.max_flow_bytes is None:
        assert max(f.size_bytes for f in flows) > MICRO.max_flow_bytes
    return flows


def _three_event_plan() -> FailurePlan:
    plan = FailurePlan()
    plan.add_failure(5_000.0, LinkRef(0, 0, Direction.EGRESS))
    plan.add_failure(10_000.0, LinkRef(1, 1, Direction.INGRESS))
    plan.add_repair(40_000.0, LinkRef(0, 0, Direction.EGRESS))
    return plan


def _conservation_case(engine, params, failures, case):
    words = [engine.label, *(f"{k}={v}" for k, v in params.items())]
    words += ["failures"] if failures else []
    words += map(str, case)
    return pytest.param(engine, params, failures, case, id="-".join(words))


CONSERVATION_CASES = [
    _conservation_case(engine, params, failures, case)
    for engine in ENGINES
    for params in [{}, PARAMS_VARIANTS.get(engine.system)]
    if params is not None
    for failures in ((False, True) if engine.entry.failures else (False,))
    for case in MICRO_CASES
]


@pytest.mark.parametrize("engine, params, failures, case", CONSERVATION_CASES)
def test_conservation_after_every_step(engine, params, failures, case):
    """Failures drop transmissions, never bytes, and an engine's
    incremental queue total must never drift from its queues or from the
    bytes its flows have left."""
    flows = _micro_trace(*case)
    by_arrival = sorted(flows, key=lambda flow: flow.arrival_ns)
    arrivals = [flow.arrival_ns for flow in by_arrival]
    arrived = [0, *itertools.accumulate(f.size_bytes for f in by_arrival)]
    extra = {}
    if failures:
        extra["failure_model"] = LinkFailureModel(
            NUM_TORS, PORTS, detect_epochs=2
        )
        extra["failure_plan"] = _three_event_plan()
    sim = engine.build(flows, params=params, **extra)
    assert sim.core_used == engine.core
    # An epoch injects through its end, a slot or slice up to its start.
    lead_ns = sim.summary(DURATION_NS).epoch_ns or 0.0
    steps = 0
    while sim.now_ns < DURATION_NS:
        bound_ns = sim.now_ns + lead_ns
        sim.step()
        steps += 1
        count = bisect.bisect_right(arrivals, bound_ns)
        delivered = sim.tracker.delivered_bytes
        queued = sim.total_queued_bytes
        assert delivered + queued == arrived[count], (
            f"step {steps}: arrived {arrived[count]} != delivered "
            f"{delivered} + queued {queued}"
        )
        # The vectorized core keeps a flow's remaining bytes in its own
        # arrays until the flow completes (DESIGN.md section 15).
        if engine.core == "scalar":
            left = sum(flow.remaining_bytes for flow in by_arrival[:count])
            assert queued == left, f"step {steps}: {left} bytes left"
    assert steps > 10
    assert sim.tracker.delivered_bytes > 0


# ---------------------------------------------------------------------------
# streaming equals materialized
# ---------------------------------------------------------------------------


# Arrivals may land anywhere, including the final partial slot a
# fixed-duration slot engine never injects: num_flows counts injected
# flows in both modes.
flow_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_TORS - 1),
        st.integers(min_value=1, max_value=NUM_TORS - 1),
        st.integers(min_value=200, max_value=60_000),
        st.floats(min_value=0.0, max_value=DURATION_NS),
    ),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize(
    "engine", [engine for engine in ENGINES if engine.entry.stream], ids=_label
)
def test_streaming_equals_materialized(engine):
    @_examples(40)
    @given(records=flow_records, data=st.data())
    def check(records, data):
        extra = {}
        if engine.entry.failures and data.draw(st.booleans()):
            extra["failure_plan"], _ = random_failure_plan(
                NUM_TORS, PORTS, 0.25, 10_000.0, 40_000.0,
                random.Random(data.draw(st.integers(0, 2**16))),
            )
        summaries = []
        for stream in (False, True):
            flows = _flows(records)
            sim = engine.build(
                iter(flows) if stream else flows, stream=stream, **extra
            )
            sim.run(DURATION_NS)
            summaries.append(sim.summary(DURATION_NS).to_dict())
        materialized, streaming = summaries
        # The same FCTs summed in another order: np.mean's pairwise sum
        # against the tracker's running sum.  The p99 is exact while the
        # completed mice fit the reservoir, as they do at this trace size.
        mean = materialized.pop("mice_fct_mean_ns")
        assert streaming.pop("mice_fct_mean_ns") == pytest.approx(
            mean, rel=1e-9
        )
        assert materialized == streaming

    check()


RESIDENCY_FLOWS = 15_000


@pytest.mark.parametrize(
    "engine", [engine for engine in ENGINES if engine.entry.stream], ids=_label
)
def test_streaming_residency_stays_bounded(engine):
    """A streamed trace is held in flight, never whole: a half-load
    Poisson stream of 1 KB flows runs to completion while its live flows
    peak far below the trace size, and every completion releases its
    flow.  Measured peaks are 185 to 654 flows."""
    args = (FixedSize(1000), 0.5, NUM_TORS, MICRO.host_aggregate_gbps,
            RESIDENCY_FLOWS)
    sim = engine.build(
        heavy_poisson_stream(*args, random.Random(1)), stream=True
    )
    assert sim.run_until_complete(max_ns=4 * heavy_poisson_span_ns(*args))
    tracker = sim.tracker
    assert tracker.num_completed == RESIDENCY_FLOWS
    assert tracker.delivered_bytes == 1000 * RESIDENCY_FLOWS
    assert tracker.live_flows == 0
    assert tracker.peak_live_flows < RESIDENCY_FLOWS // 10


# ---------------------------------------------------------------------------
# fast-forward on equals off
# ---------------------------------------------------------------------------


# Sizes run past the 60 KB elephant thresholds that relaying and
# offloading act on, so those paths meet idle gaps too.
late_records = st.lists(
    st.tuples(
        st.integers(0, NUM_TORS - 1),
        st.integers(1, NUM_TORS - 1),
        st.integers(1, 200_000),
        st.integers(0, 600_000),
    ),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize("engine", ENGINES, ids=_label)
def test_fast_forward_on_equals_off(engine):
    """Traces start after an idle gap, so the fast-forwarding run really
    skips steps, and a skipped step must count on the tracer as a
    stepped one would.  Arrivals spread over 600 µs leave idle gaps
    between flows too.  Both run loops are compared: to completion, and
    to a run limit the skipping run jumps to once the fabric drains."""

    @_examples(30)
    @given(
        records=late_records,
        idle_ns=st.integers(20_000, 400_000),
        seed=st.integers(0, 2**16),
        until_complete=st.booleans(),
        data=st.data(),
    )
    def check(records, idle_ns, seed, until_complete, data):
        extra = {}
        if engine.entry.failures and data.draw(st.booleans()):
            extra["failure_plan"], _ = random_failure_plan(
                NUM_TORS, PORTS, 0.1, 40_000.0, 300_000.0, random.Random(seed)
            )
        # A run limit 100 µs past the last arrival, where every engine
        # has drained its fabric.
        horizon_ns = idle_ns + max(record[3] for record in records) + 1e5
        results, counters = [], []
        for traced in (False, True):
            for fast_forward in (True, False):
                sink = MemorySink()
                tracer = EngineTracer(sink, engine.system) if traced else None
                sim = engine.build(
                    _flows(records, idle_ns),
                    seed=seed,
                    fast_forward=fast_forward,
                    tracer=tracer,
                    **extra,
                )
                assert sim.core_used == engine.core
                if until_complete:
                    assert sim.run_until_complete(max_ns=5e6)
                    summary = sim.summary()
                else:
                    sim.run(horizon_ns)
                    summary = sim.summary(horizon_ns)
                assert (sim.fast_forwarded_steps > 0) == fast_forward
                fcts = {f.fid: f.completed_ns for f in sim.tracker.flows}
                results.append((sim.steps, summary.to_dict(), fcts))
                if traced:
                    tracer.finish(int(sim.now_ns))
                    counters.append(sink.of_kind("run-end")[-1]["counters"])
        assert all(result == results[0] for result in results[1:])
        skipping, stepping = counters
        assert skipping == stepping

    check()


@pytest.mark.parametrize("fast_forward", [True, False], ids=["ff", "no-ff"])
@pytest.mark.parametrize("engine", ENGINES, ids=_label)
def test_idle_run_counts_every_step(engine, fast_forward):
    """An empty fabric runs whole steps up to the limit, no more: with
    fast-forward every one of them is skipped, without it every one is
    stepped, and either way the tracer's step counter counts each."""
    sink = MemorySink()
    tracer = EngineTracer(sink, engine.system)
    sim = engine.build([], fast_forward=fast_forward, tracer=tracer)
    sim.run(DURATION_NS)
    step_ns = sim.now_ns / sim.steps
    assert sim.now_ns >= DURATION_NS > sim.now_ns - step_ns
    assert sim.fast_forwarded_steps == (sim.steps if fast_forward else 0)
    tracer.finish(int(sim.now_ns))
    counters = sink.of_kind("run-end")[-1]["counters"]
    assert counters[sim.step_counter] == sim.steps
    summary = sim.summary(DURATION_NS)
    assert summary.num_flows == summary.num_completed == 0
