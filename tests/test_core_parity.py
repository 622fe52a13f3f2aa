"""Differential tests: the vectorized cores against their scalar oracles.

DESIGN.md section 15 promises that ``SimConfig.core`` is a pure
performance switch — on a fixed seed the vectorized core produces
bit-identical results to the scalar reference engine.  These tests
enforce that promise with hypothesis-generated traces pushed through
both cores of all three engines (negotiator, oblivious, rotor), with and
without link failures, in materialized and streaming tracker modes — the
negotiator on both the parallel network and thin-clos.  The default
``core="auto"`` is covered too: it must pick a core from observable
inputs only, never warn, and leave the baselines on the scalar core.

There are no exceptions: streaming-mode FCT accumulators fold each
step's completions in canonical (completed_ns, fid) order (see
``FlowTracker.flush_completions``), so even the running-mean fields —
once allowed a last-ulp carve-out because the cores delivered within an
epoch in different orders — are bit-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Flow, ObliviousSimulator, SimConfig, ThinClos
from repro.sim.adaptive import AdaptiveSimulator
from repro.sim.factory import make_negotiator, vectorized_core_eligible
from repro.sim.failures import FailurePlan, random_failure_plan
from repro.sim.network import NegotiaToRSimulator
from repro.sim.rotor import RotorSimulator
from repro.sim.vectorized import VectorizedNegotiaToRSimulator
from repro.topology.parallel import ParallelNetwork

NUM_TORS = 8
PORTS = 2


def _config(seed: int, core: str, *, fast_forward: bool = True) -> SimConfig:
    return SimConfig(
        num_tors=NUM_TORS,
        ports_per_tor=PORTS,
        seed=seed,
        core=core,
        idle_fast_forward=fast_forward,
    )


def _topology(fabric: str):
    if fabric == "thinclos":
        return ThinClos(NUM_TORS, PORTS, NUM_TORS // PORTS)
    return ParallelNetwork(NUM_TORS, PORTS)


# Sampled per example, so each fuzz test's max_examples is twice the
# example budget it means to give each fabric.
fabrics = st.sampled_from(["parallel", "thinclos"])


def _flows(draw_pairs: list[tuple[int, int, int, int]]) -> list[Flow]:
    """Materialize hypothesis-drawn (src, dst_offset, bytes, gap) tuples.

    Engines mutate ``Flow`` objects in place (``remaining_bytes``,
    ``completed_ns``), so every simulator must get its own freshly-built
    list — call this once per engine, never share the result.
    """
    flows = []
    arrival = 0.0
    for fid, (src, dst_off, size, gap_ns) in enumerate(draw_pairs):
        dst = (src + 1 + dst_off) % NUM_TORS
        arrival += float(gap_ns)
        flows.append(Flow(fid, src, dst, size, arrival))
    return flows


flow_tuples = st.lists(
    st.tuples(
        st.integers(0, NUM_TORS - 1),       # src
        st.integers(0, NUM_TORS - 2),       # dst offset (never src)
        st.integers(1, 60_000),             # size_bytes
        st.integers(0, 30_000),             # inter-arrival gap ns
    ),
    min_size=1,
    max_size=40,
)


def _assert_summaries_identical(scalar_sim, vector_sim, *, stream: bool):
    ds = scalar_sim.summary().to_dict()
    dv = vector_sim.summary().to_dict()
    for key in ds:
        assert ds[key] == dv[key], key
    assert scalar_sim.epoch == vector_sim.epoch
    if not stream:
        sc = {f.fid: f.completed_ns for f in scalar_sim.tracker.flows}
        vc = {f.fid: f.completed_ns for f in vector_sim.tracker.flows}
        assert sc == vc


class TestNegotiatorParity:
    @given(
        pairs=flow_tuples,
        seed=st.integers(0, 2**16),
        ff=st.booleans(),
        fabric=fabrics,
    )
    @settings(max_examples=80, deadline=None)
    def test_materialized_bit_identical(self, pairs, seed, ff, fabric):
        topo = _topology(fabric)
        s = NegotiaToRSimulator(
            _config(seed, "scalar", fast_forward=ff), topo, _flows(pairs)
        )
        v = VectorizedNegotiaToRSimulator(
            _config(seed, "vectorized", fast_forward=ff), topo, _flows(pairs)
        )
        assert s.run_until_complete(max_ns=1e12)
        assert v.run_until_complete(max_ns=1e12)
        _assert_summaries_identical(s, v, stream=False)

    @given(
        pairs=flow_tuples,
        seed=st.integers(0, 2**16),
        ratio=st.sampled_from([0.1, 0.25]),
        repair=st.booleans(),
        fabric=fabrics,
    )
    @settings(max_examples=50, deadline=None)
    def test_link_failures_bit_identical(
        self, pairs, seed, ratio, repair, fabric
    ):
        topo = _topology(fabric)
        plan, _ = random_failure_plan(
            NUM_TORS,
            PORTS,
            ratio,
            40_000.0,
            300_000.0 if repair else None,
            random.Random(seed + 7),
        )
        s = NegotiaToRSimulator(
            _config(seed, "scalar"),
            topo,
            _flows(pairs),
            failure_plan=FailurePlan(list(plan.events)),
        )
        v = VectorizedNegotiaToRSimulator(
            _config(seed, "vectorized"),
            topo,
            _flows(pairs),
            failure_plan=FailurePlan(list(plan.events)),
        )
        # Unrepaired failures can strand bytes; cap instead of completing.
        s.run(2e6)
        v.run(2e6)
        _assert_summaries_identical(s, v, stream=False)

    @given(pairs=flow_tuples, seed=st.integers(0, 2**16), fabric=fabrics)
    @settings(max_examples=50, deadline=None)
    def test_streaming_bit_identical(self, pairs, seed, fabric):
        topo = _topology(fabric)
        s = NegotiaToRSimulator(
            _config(seed, "scalar"), topo, iter(_flows(pairs)), stream=True
        )
        v = VectorizedNegotiaToRSimulator(
            _config(seed, "vectorized"), topo, iter(_flows(pairs)), stream=True
        )
        assert s.run_until_complete(max_ns=1e12)
        assert v.run_until_complete(max_ns=1e12)
        _assert_summaries_identical(s, v, stream=True)

    @pytest.mark.parametrize("repair", [False, True])
    def test_thinclos_detected_failure_epochs_bit_identical(self, repair):
        """Thin-clos GRANT/ACCEPT on epochs with detected failures: a
        steady backlog keeps every ring busy while links are excluded
        (and, with repair, while they rejoin)."""
        rng = random.Random(5)
        pairs = [
            (rng.randrange(NUM_TORS), rng.randrange(NUM_TORS - 1),
             rng.randrange(5_000, 60_000), rng.randrange(0, 4_000))
            for _ in range(120)
        ]
        topo = _topology("thinclos")
        plan, _ = random_failure_plan(
            NUM_TORS, PORTS, 0.25, 20_000.0,
            150_000.0 if repair else None, random.Random(3),
        )
        sims = []
        for cls, core in (
            (NegotiaToRSimulator, "scalar"),
            (VectorizedNegotiaToRSimulator, "vectorized"),
        ):
            sim = cls(
                _config(9, core), topo, _flows(pairs),
                failure_plan=FailurePlan(list(plan.events)),
            )
            detected_epochs = 0
            while sim.now_ns < 400_000.0:
                sim.step_epoch()
                detected_epochs += sim.failures.any_detected
            assert detected_epochs > 0
            sims.append(sim)
        _assert_summaries_identical(*sims, stream=False)

    def test_tracer_window_counters_sum_identically(self):
        from repro.telemetry import EngineTracer, MemorySink

        rng = random.Random(11)
        pairs = [
            (
                rng.randrange(NUM_TORS),
                rng.randrange(NUM_TORS - 1),
                rng.randrange(1, 40_000),
                rng.randrange(0, 20_000),
            )
            for _ in range(50)
        ]
        topo = ParallelNetwork(NUM_TORS, PORTS)
        totals = {}
        for core, cls in (
            ("scalar", NegotiaToRSimulator),
            ("vectorized", VectorizedNegotiaToRSimulator),
        ):
            sink = MemorySink()
            tracer = EngineTracer(sink, "negotiator", cadence_ns=25_000)
            sim = cls(_config(3, core), topo, _flows(pairs), tracer=tracer)
            assert sim.run_until_complete(max_ns=1e12)
            tracer.finish(int(sim.now_ns))
            totals[core] = sink.of_kind("run-end")[-1]["counters"]
        assert totals["scalar"] == totals["vectorized"]
        assert totals["scalar"]["epochs"] > 0


class TestObliviousAndRotorCoreParity:
    """The oblivious/rotor engines take ``core`` as an internal switch."""

    @given(pairs=flow_tuples, seed=st.integers(0, 2**16), ff=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_oblivious_cores_bit_identical(self, pairs, seed, ff):
        topo = ThinClos(NUM_TORS, PORTS, NUM_TORS // PORTS)
        sims = {}
        for core in ("scalar", "vectorized"):
            sim = ObliviousSimulator(
                _config(seed, core, fast_forward=ff), topo, _flows(pairs)
            )
            assert sim.run_until_complete(max_ns=1e12)
            sims[core] = sim
        s, v = sims["scalar"], sims["vectorized"]
        assert s.summary().to_dict() == v.summary().to_dict()
        assert {f.fid: f.completed_ns for f in s.tracker.flows} == {
            f.fid: f.completed_ns for f in v.tracker.flows
        }

    @given(
        pairs=flow_tuples,
        seed=st.integers(0, 2**16),
        ff=st.booleans(),
        failures=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_rotor_cores_bit_identical(self, pairs, seed, ff, failures):
        topo = ThinClos(NUM_TORS, PORTS, NUM_TORS // PORTS)
        plan = None
        if failures:
            plan, _ = random_failure_plan(
                NUM_TORS, PORTS, 0.1, 40_000.0, 300_000.0, random.Random(seed)
            )
        sims = {}
        for core in ("scalar", "vectorized"):
            sim = RotorSimulator(
                _config(seed, core, fast_forward=ff),
                topo,
                _flows(pairs),
                failure_plan=(
                    FailurePlan(list(plan.events)) if plan else None
                ),
            )
            sim.run(3e6)
            sims[core] = sim
        s, v = sims["scalar"], sims["vectorized"]
        assert s.summary().to_dict() == v.summary().to_dict()
        assert s.slices == v.slices


class TestFactoryDispatch:
    def test_vectorized_core_selected_inside_envelope(self, monkeypatch):
        monkeypatch.delenv("REPRO_CORE", raising=False)
        config = _config(0, "vectorized")
        topo = ParallelNetwork(NUM_TORS, PORTS)
        sim = make_negotiator(config, topo, [Flow(0, 0, 1, 100, 0.0)])
        assert isinstance(sim, VectorizedNegotiaToRSimulator)

    def test_scalar_core_selected_by_default(self, monkeypatch):
        """The default core is "auto", which keeps small fabrics scalar."""
        monkeypatch.delenv("REPRO_CORE", raising=False)
        config = SimConfig(num_tors=NUM_TORS, ports_per_tor=PORTS)
        assert config.core == "auto"
        topo = ParallelNetwork(NUM_TORS, PORTS)
        sim = make_negotiator(config, topo, [Flow(0, 0, 1, 100, 0.0)])
        assert isinstance(sim, NegotiaToRSimulator)

    def test_env_override_beats_config_field(self, monkeypatch):
        """REPRO_CORE switches a whole sweep without touching specs."""
        monkeypatch.setenv("REPRO_CORE", "vectorized")
        config = _config(0, "scalar")
        topo = ParallelNetwork(NUM_TORS, PORTS)
        sim = make_negotiator(config, topo, [Flow(0, 0, 1, 100, 0.0)])
        assert isinstance(sim, VectorizedNegotiaToRSimulator)

    def test_fallback_outside_envelope_warns_loudly(self, monkeypatch):
        """Explicitly requested vectorized on an ineligible config must not
        silently run the scalar engine: a RuntimeWarning names the failed
        envelope condition, and the fallback itself still happens."""
        monkeypatch.delenv("REPRO_CORE", raising=False)
        topo = ParallelNetwork(NUM_TORS, PORTS)
        config = _config(0, "vectorized")
        buffered = replace(config, receiver_buffer_bytes=10_000)
        assert not vectorized_core_eligible(buffered, topo)
        with pytest.warns(RuntimeWarning, match="receiver buffers"):
            sim = make_negotiator(buffered, topo, [Flow(0, 0, 1, 100, 0.0)])
        assert isinstance(sim, NegotiaToRSimulator)
        assert sim.core_used == "scalar"
        assert vectorized_core_eligible(
            config, ThinClos(NUM_TORS, PORTS, NUM_TORS // PORTS)
        )
        assert not vectorized_core_eligible(
            config, topo, record_pair_bandwidth=True
        )

    def test_fallback_warning_names_first_failed_condition(self, monkeypatch):
        from repro.sim.factory import vectorized_core_ineligibility
        from repro.sim.metrics import MatchRatioRecorder

        monkeypatch.delenv("REPRO_CORE", raising=False)

        config = _config(0, "vectorized")
        thin = ThinClos(NUM_TORS, PORTS, NUM_TORS // PORTS)
        with pytest.warns(RuntimeWarning, match="match-ratio recorder"):
            make_negotiator(
                config, thin, [Flow(0, 0, 1, 100, 0.0)],
                match_recorder=MatchRatioRecorder(),
            )
        assert (
            vectorized_core_ineligibility(
                config, thin, match_recorder=MatchRatioRecorder()
            )
            is not None
        )
        for topo in (thin, ParallelNetwork(NUM_TORS, PORTS)):
            assert vectorized_core_ineligibility(config, topo) is None

    def test_default_scalar_path_stays_silent(self, recwarn, monkeypatch):
        """The implicit default (core='auto') is not a fallback; no
        warning may fire even on a config outside the vectorized envelope."""
        monkeypatch.delenv("REPRO_CORE", raising=False)
        config = SimConfig(
            num_tors=NUM_TORS, ports_per_tor=PORTS, receiver_buffer_bytes=10_000
        )
        topo = ParallelNetwork(NUM_TORS, PORTS)
        sim = make_negotiator(config, topo, [Flow(0, 0, 1, 100, 0.0)])
        assert isinstance(sim, NegotiaToRSimulator)
        assert not [
            w for w in recwarn.list if issubclass(w.category, RuntimeWarning)
        ]

    def test_eligible_vectorized_path_stays_silent(self, recwarn, monkeypatch):
        monkeypatch.delenv("REPRO_CORE", raising=False)
        config = _config(0, "vectorized")
        topo = ParallelNetwork(NUM_TORS, PORTS)
        sim = make_negotiator(config, topo, [Flow(0, 0, 1, 100, 0.0)])
        assert isinstance(sim, VectorizedNegotiaToRSimulator)
        assert sim.core_used == "vectorized"
        assert not [
            w for w in recwarn.list if issubclass(w.category, RuntimeWarning)
        ]


def _paper_flows(scenario: str, load: float, *, stream=False, **params):
    """A paper-scale (128x8) workload built the way sweep specs build it."""
    from repro.experiments import SCALES
    from repro.sweep import scenarios

    entry = scenarios.get(scenario)
    resolved = entry.resolve_params(params)
    build = entry.build_iter if stream else entry.build_list
    return build(
        SCALES["paper"], load, 20_000.0, random.Random(0), **resolved
    )


def _paper(fabric: str, **overrides):
    from repro.experiments import SCALES
    from repro.experiments.common import make_topology, sim_config

    scale = SCALES["paper"]
    return sim_config(scale, **overrides), make_topology(scale, fabric)


class TestAutoCore:
    """``core="auto"`` reads only envelope, num_tors and arrival density."""

    @pytest.fixture(autouse=True)
    def _no_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CORE", raising=False)

    @pytest.mark.parametrize("fabric", ["parallel", "thinclos"])
    def test_dense_paper_poisson_resolves_vectorized(self, fabric, recwarn):
        config, topo = _paper(fabric)
        assert config.core == "auto"
        sim = make_negotiator(config, topo, _paper_flows("poisson", 0.9))
        assert sim.core_used == "vectorized"
        assert not [
            w for w in recwarn.list if issubclass(w.category, RuntimeWarning)
        ]

    def test_sparse_stream_resolves_scalar_and_keeps_every_flow(self, recwarn):
        """The streaming density probe peeks a bounded prefix and chains
        it back: the engine still sees every flow, in order."""
        from repro.sim.factory import AUTO_PREFIX_FLOWS, resolve_core

        config, topo = _paper("parallel")
        count = AUTO_PREFIX_FLOWS + 500
        flows = _paper_flows(
            "heavy-poisson", 0.005, stream=True,
            trace="hadoop", num_flows=count,
        )
        core, chained = resolve_core(config, topo, flows, stream=True)
        assert core == "scalar"
        expected = _paper_flows(
            "heavy-poisson", 0.005, stream=True,
            trace="hadoop", num_flows=count,
        )
        assert [f.fid for f in chained] == [f.fid for f in expected]
        sim = make_negotiator(
            config, topo,
            _paper_flows(
                "heavy-poisson", 0.005, stream=True,
                trace="hadoop", num_flows=count,
            ),
            stream=True,
        )
        assert sim.core_used == "scalar"
        assert not [
            w for w in recwarn.list if issubclass(w.category, RuntimeWarning)
        ]

    def test_micro_scale_resolves_scalar(self, recwarn):
        from repro.sim.factory import resolve_core

        config = SimConfig(num_tors=NUM_TORS, ports_per_tor=PORTS)
        flows = [
            Flow(i, s, d, 5_000, 0.0)
            for i, (s, d) in enumerate(
                (s, d) for s in range(NUM_TORS) for d in range(NUM_TORS)
                if s != d
            )
        ]
        for fabric in ("parallel", "thinclos"):
            core, _ = resolve_core(config, _topology(fabric), flows)
            assert core == "scalar"
        assert not recwarn.list

    def test_out_of_envelope_resolves_scalar_silently(self, recwarn):
        config, topo = _paper("thinclos", receiver_buffer_bytes=100_000)
        sim = make_negotiator(config, topo, _paper_flows("poisson", 0.9))
        assert sim.core_used == "scalar"
        assert not [
            w for w in recwarn.list if issubclass(w.category, RuntimeWarning)
        ]

    @pytest.mark.parametrize(
        "engine", [ObliviousSimulator, RotorSimulator, AdaptiveSimulator]
    )
    def test_baselines_keep_auto_on_scalar(self, engine, monkeypatch):
        """The density rule was measured on the negotiator; the baselines'
        switch turns on only when asked for explicitly."""
        config, topo = _paper("thinclos")
        sim = engine(config, topo, _paper_flows("poisson", 0.9))
        assert sim.core_used == "scalar"
        monkeypatch.setenv("REPRO_CORE", "vectorized")
        sim = engine(config, topo, _paper_flows("poisson", 0.9))
        assert sim.core_used == "vectorized"

    def test_explicit_core_and_env_win(self, monkeypatch):
        from repro.sim.factory import resolve_core

        dense = _paper_flows("poisson", 0.9)
        config, topo = _paper("thinclos", core="scalar")
        assert resolve_core(config, topo, dense)[0] == "scalar"
        sparse = [Flow(0, 0, 1, 100, 0.0)]
        config, topo = _paper("thinclos", core="vectorized")
        assert resolve_core(config, topo, sparse)[0] == "vectorized"
        monkeypatch.setenv("REPRO_CORE", "scalar")
        config, topo = _paper("parallel")
        assert resolve_core(config, topo, dense)[0] == "scalar"
        monkeypatch.setenv("REPRO_CORE", "auto")
        config, topo = _paper("parallel", core="scalar")
        assert resolve_core(config, topo, dense)[0] == "vectorized"

    def test_vectorized_on_thinclos_no_longer_warns(self, recwarn):
        config = _config(0, "vectorized")
        thin = _topology("thinclos")
        sim = make_negotiator(config, thin, [Flow(0, 0, 1, 100, 0.0)])
        assert isinstance(sim, VectorizedNegotiaToRSimulator)
        assert not [
            w for w in recwarn.list if issubclass(w.category, RuntimeWarning)
        ]

    def test_bad_core_values_raise(self, monkeypatch):
        with pytest.raises(ValueError, match="core must be one of"):
            SimConfig(core="fast")
        monkeypatch.setenv("REPRO_CORE", "fast")
        with pytest.raises(ValueError, match="not a valid core"):
            SimConfig().resolved_core


class TestRunLoopControl:
    """Satellites: integer-ns loop control and max_ns validation."""

    def _engines(self, core="scalar"):
        config = _config(0, core)
        flows = [Flow(0, 0, 1, 5_000, 0.0)]
        thin = ThinClos(NUM_TORS, PORTS, NUM_TORS // PORTS)
        return [
            NegotiaToRSimulator(
                config, ParallelNetwork(NUM_TORS, PORTS), list(flows)
            ),
            ObliviousSimulator(config, thin, list(flows)),
            RotorSimulator(config, thin, list(flows)),
        ]

    @pytest.mark.parametrize("bad", [0, -1, -1e9])
    def test_run_until_complete_rejects_nonpositive_max_ns(self, bad):
        for sim in self._engines():
            with pytest.raises(ValueError, match="max_ns must be positive"):
                sim.run_until_complete(max_ns=bad)
        config = _config(0, "vectorized")
        vec = VectorizedNegotiaToRSimulator(
            config, ParallelNetwork(NUM_TORS, PORTS), [Flow(0, 0, 1, 10, 0.0)]
        )
        with pytest.raises(ValueError, match="max_ns must be positive"):
            vec.run_until_complete(max_ns=bad)

    def test_long_horizon_epoch_counts_are_exact(self):
        """Integer step budgets: epoch counters match ceil(duration/step)
        exactly even over horizons where float accumulation would drift."""
        config = _config(0, "scalar", fast_forward=False)
        topo = ParallelNetwork(NUM_TORS, PORTS)
        sim = NegotiaToRSimulator(config, topo, [])
        epoch_ns = sim.timing.epoch_ns
        duration = 250_000 * epoch_ns  # long horizon, inexact float step
        sim.run(duration)
        assert sim.epoch == math.ceil(duration / epoch_ns) or (
            sim.epoch * epoch_ns >= duration
            and (sim.epoch - 1) * epoch_ns < duration
        )
        # The defining invariant: stepping stopped exactly at the first
        # epoch whose start time reaches the requested duration.
        assert (sim.epoch - 1) * epoch_ns < duration <= sim.epoch * epoch_ns

    def test_chunked_run_equals_single_run(self):
        """Repeated short run() calls land on the same integer epoch count
        as one long call — no drift from re-deriving the loop bound."""
        config = _config(0, "scalar", fast_forward=False)
        topo = ParallelNetwork(NUM_TORS, PORTS)
        single = NegotiaToRSimulator(config, topo, [])
        chunked = NegotiaToRSimulator(config, topo, [])
        epoch_ns = single.timing.epoch_ns
        total = 999 * epoch_ns * 1.000000001
        single.run(total)
        for i in range(1, 10):
            chunked.run(total * i / 9)
        assert chunked.epoch == single.epoch
