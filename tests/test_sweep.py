"""Tests for the sweep orchestration subsystem (spec, runner, store, CLI).

The load-bearing properties:

* spec content hashes are stable — across objects, param orderings, JSON
  round-trips, and separate processes;
* a parallel sweep (``jobs=4``) is bit-identical to a serial one;
* a resumed sweep serves every completed spec from the store and executes
  zero simulations.
"""

from __future__ import annotations

import json
import multiprocessing
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.variants import SCHEDULERS
from repro.experiments import TINY
from repro.experiments.common import make_topology, sim_config, workload_for
from repro.sim.config import SimConfig
from repro.sim.factory import make_negotiator
from repro.sim.metrics import RunSummary
from repro.sweep import (
    SCENARIOS,
    ResultStore,
    RunSpec,
    StoreError,
    SweepRunner,
    build_workload,
    execute_spec,
    freeze_params,
    system_spec_fields,
)
from repro.sweep.spec import (
    SYSTEM_PARAM_FIELDS,
    SYSTEMS,
    unknown_name_message,
    unsupported_message,
)

SHORT_NS = 150_000.0


def tiny_core() -> str:
    """The core a tiny-scale negotiator spec runs on.

    ``"auto"`` keeps fabrics below ``AUTO_MIN_TORS`` on the scalar core,
    so only an explicit ``REPRO_CORE`` moves a tiny spec elsewhere.
    """
    core = SimConfig().resolved_core
    return "scalar" if core == "auto" else core


def tiny_spec(**overrides) -> RunSpec:
    base = dict(
        scale="tiny", load=0.25, seed=2024, duration_ns=SHORT_NS
    )
    base.update(overrides)
    return RunSpec(**base)


def reference_summary(config: SimConfig) -> RunSummary:
    """The default tiny spec's run, built by hand on the parallel network.

    Independent of ``run_system``, so comparing ``execute_spec`` against
    it checks the one run path rather than restating it.
    """
    flows = workload_for(TINY, 0.25, duration_ns=SHORT_NS)
    sim = make_negotiator(config, make_topology(TINY, "parallel"), flows)
    sim.run(SHORT_NS)
    return sim.summary(SHORT_NS)


def grid_specs() -> list[RunSpec]:
    """8 cheap specs spanning scenarios, loads, and systems."""
    specs = [
        tiny_spec(scenario=scenario, load=load)
        for scenario in ("poisson", "hotspot", "permutation")
        for load in (0.1, 0.25)
    ]
    specs.append(tiny_spec(system="oblivious", topology="thinclos"))
    specs.append(tiny_spec(scenario="ring-allreduce", load=1.0))
    return specs


# ---------------------------------------------------------------------------
# spec hashing
# ---------------------------------------------------------------------------


def _hash_in_subprocess(spec_dict: dict) -> str:
    return RunSpec.from_dict(spec_dict).content_hash


class TestSpecHash:
    def test_equal_specs_hash_equal(self):
        assert tiny_spec().content_hash == tiny_spec().content_hash

    def test_hash_is_memoized_per_instance(self, monkeypatch):
        spec = tiny_spec()
        first = spec.content_hash
        calls = []
        monkeypatch.setattr(
            RunSpec, "canonical_json",
            lambda self: calls.append(self) or "changed",
        )
        assert spec.content_hash == first
        assert not calls

    def test_hash_stays_a_plain_property(self):
        # Tracing hooks wrap ``property.fget``; a cached_property would
        # bypass them.
        assert isinstance(RunSpec.__dict__["content_hash"], property)

    def test_memo_stays_out_of_equality(self):
        hashed, fresh = tiny_spec(), tiny_spec()
        hashed.content_hash
        assert hashed == fresh
        assert hash(hashed) == hash(fresh)

    def test_memo_stays_out_of_serialized_forms(self):
        spec = tiny_spec()
        before = (spec.to_dict(), spec.canonical_json())
        digest = spec.content_hash
        assert (spec.to_dict(), spec.canonical_json()) == before
        assert digest not in json.dumps(spec.to_dict())

    def test_memo_stays_out_of_pickles(self):
        import pickle

        spec = tiny_spec()
        digest = spec.content_hash
        clone = pickle.loads(pickle.dumps(spec))
        assert "_content_hash" not in clone.__dict__
        assert clone == spec
        assert clone.content_hash == digest

    def test_replace_and_with_params_hash_afresh(self):
        from dataclasses import replace

        spec = tiny_spec()
        spec.content_hash
        for changed in (replace(spec, seed=7), spec.with_params(seed=7)):
            assert "_content_hash" not in changed.__dict__
            assert changed.content_hash == tiny_spec(seed=7).content_hash
            assert changed.content_hash != spec.content_hash

    def test_any_field_change_changes_hash(self):
        base = tiny_spec()
        variants = [
            tiny_spec(load=0.5),
            tiny_spec(seed=7),
            tiny_spec(topology="thinclos"),
            tiny_spec(priority_queue=False),
            tiny_spec(scenario="hotspot"),
            tiny_spec(scenario_params={"trace": "websearch"}),
            tiny_spec(collect=("mice_cdf",)),
            tiny_spec(epoch_params={"scheduled_slots": 10}),
            tiny_spec(
                failure_params={
                    "plan": "egress-ports", "ports": 1, "at_ns": 0.0,
                }
            ),
            tiny_spec(instrument={"match_ratio": True}),
            tiny_spec(system="relay", topology="thinclos"),
            tiny_spec(system="rotor", topology="thinclos"),
            tiny_spec(
                system="rotor",
                topology="thinclos",
                rotor_params={"packets_per_slice": 4},
            ),
            tiny_spec(system="adaptive", topology="thinclos"),
            tiny_spec(
                system="adaptive",
                topology="thinclos",
                adaptive_params={"recompute_slices": 2},
            ),
        ]
        hashes = {spec.content_hash for spec in variants}
        assert len(hashes) == len(variants)
        assert base.content_hash not in hashes

    def test_param_order_does_not_matter(self):
        a = tiny_spec(scenario_params={"a": 1, "b": 2})
        b = tiny_spec(scenario_params={"b": 2, "a": 1})
        assert a.content_hash == b.content_hash

    def test_dict_roundtrip_preserves_hash(self):
        spec = tiny_spec(
            scenario="incast",
            scenario_params={"degree": 3},
            collect=("incast_finish_ns",),
            until_complete=True,
        )
        recycled = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert recycled == spec
        assert recycled.content_hash == spec.content_hash

    def test_hash_stable_across_processes(self):
        """The store contract: other processes compute the same hashes."""
        specs = grid_specs()
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(2) as pool:
            remote = pool.map(
                _hash_in_subprocess, [s.to_dict() for s in specs]
            )
        assert remote == [s.content_hash for s in specs]

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="system"):
            tiny_spec(system="torus")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("load", 0.0),
            ("load", -1.0),
            ("load", float("inf")),
            ("load", float("nan")),
            ("duration_ns", 0.0),
            ("duration_ns", float("inf")),
            ("duration_ns", float("nan")),
            ("max_ns", 0.0),
            ("max_ns", -1.0),
            ("max_ns", float("inf")),
            ("max_ns", float("nan")),
        ],
    )
    def test_non_positive_or_non_finite_number_rejected(self, field, value):
        """A spec that could never finish fails when it is built."""
        with pytest.raises(ValueError) as excinfo:
            tiny_spec(**{field: value})
        assert str(excinfo.value) == f"{field} must be positive and finite"

    def test_spec_version_is_the_minimum_able_to_express(self):
        """Schema growth (v3 rotor, v5 adaptive) is hash-neutral for
        legacy specs.

        A spec hashes under the oldest schema that can express it, so the
        v3 bump (rotor system + rotor_params) and the v5 bump (adaptive
        system + adaptive_params) must leave every legacy spec's canonical
        JSON — and hash — byte-identical.
        """
        legacy = tiny_spec()
        assert legacy.spec_version == 2
        assert '"spec_version":2' in legacy.canonical_json()
        assert '"rotor_params"' not in legacy.canonical_json()
        assert '"adaptive_params"' not in legacy.canonical_json()
        rotor = tiny_spec(system="rotor", topology="thinclos")
        assert rotor.spec_version == 3
        assert '"spec_version":3' in rotor.canonical_json()
        assert '"adaptive_params"' not in rotor.canonical_json()
        adaptive = tiny_spec(system="adaptive", topology="thinclos")
        assert adaptive.spec_version == 5
        assert '"spec_version":5' in adaptive.canonical_json()

    def test_adaptive_spec_roundtrips_and_hashes(self):
        spec = tiny_spec(
            system="adaptive",
            topology="thinclos",
            adaptive_params={"ewma_alpha": 0.5, "residual_ports": 2},
        )
        recycled = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert recycled == spec
        assert recycled.content_hash == spec.content_hash
        assert spec.content_hash != tiny_spec(
            system="adaptive", topology="thinclos"
        ).content_hash

    def test_rotor_spec_roundtrips_and_hashes(self):
        spec = tiny_spec(
            system="rotor",
            topology="thinclos",
            rotor_params={"packets_per_slice": 8, "vlb_relay": False},
        )
        recycled = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert recycled == spec
        assert recycled.content_hash == spec.content_hash
        assert spec.content_hash != tiny_spec(
            system="rotor", topology="thinclos"
        ).content_hash

    def test_unknown_field_rejected_on_from_dict(self):
        with pytest.raises(ValueError, match="unknown RunSpec fields"):
            RunSpec.from_dict({"scale": "tiny", "color": "red"})

    def test_freeze_params_rejects_non_scalars(self):
        with pytest.raises(TypeError, match="scalar"):
            freeze_params({"bad": [1, 2]})

    def test_ad_hoc_scale_embeds_shape_and_executes(self):
        """Unregistered scales travel inside the spec (fixture fabrics)."""
        from repro.experiments.common import ExperimentScale
        from repro.sweep import scale_spec_fields

        micro = ExperimentScale(
            name="micro-x",
            num_tors=8,
            ports_per_tor=2,
            awgr_ports=4,
            duration_ns=80_000.0,
            max_flow_bytes=100_000,
            seed=99,
        )
        fields = scale_spec_fields(micro)
        assert fields["scale_params"]  # not a registered scale
        spec = RunSpec(**fields, load=0.5, seed=99)
        assert execute_spec(spec).num_flows > 0
        # Same name, different fabric -> different hash.
        other = RunSpec(
            **scale_spec_fields(
                ExperimentScale(
                    name="micro-x",
                    num_tors=16,
                    ports_per_tor=4,
                    awgr_ports=4,
                    duration_ns=80_000.0,
                    seed=99,
                )
            ),
            load=0.5,
            seed=99,
        )
        assert other.content_hash != spec.content_hash
        # Registered scales stay name-referenced.
        assert scale_spec_fields(TINY) == {"scale": "tiny"}


# ---------------------------------------------------------------------------
# the system registry: specs are checked when they are built
# ---------------------------------------------------------------------------


CAPABILITY_CASES = [
    # (the feature as the message names it, spec overrides,
    #  whether a registry entry supports it)
    (
        "topology 'parallel'",
        {"topology": "parallel"},
        lambda system: "parallel" in system.topologies,
    ),
    (
        "topology 'thinclos'",
        {"topology": "thinclos"},
        lambda system: "thinclos" in system.topologies,
    ),
    (
        "scheduler 'stateful'",
        {"scheduler": "stateful"},
        lambda system: "stateful" in system.schedulers,
    ),
    (
        "failure_params",
        {"failure_params": {"plan": "egress-ports", "ports": 1}},
        lambda system: system.failures,
    ),
    ("stream=True", {"stream": True}, lambda system: system.stream),
    (
        "instrument key 'bandwidth_bin_ns'",
        {"instrument": {"bandwidth_bin_ns": 1000.0}},
        lambda system: "bandwidth_bin_ns" in system.instrument,
    ),
    (
        "instrument key 'match_ratio'",
        {"instrument": {"match_ratio": True}},
        lambda system: "match_ratio" in system.instrument,
    ),
    (
        "instrument key 'pair_bandwidth'",
        {"instrument": {"pair_bandwidth": True}},
        lambda system: "pair_bandwidth" in system.instrument,
    ),
    # A collector knob, not a recorder: every system takes it.
    (
        "instrument key 'margin_ns'",
        {"instrument": {"margin_ns": 1.0}},
        lambda system: True,
    ),
    (
        "collect with stream=True",
        {"stream": True, "collect": ("mice_cdf",)},
        lambda system: False,
    ),
    (
        "instrument with stream=True",
        {"stream": True, "instrument": {"margin_ns": 1.0}},
        lambda system: False,
    ),
]


class TestSystemRegistry:
    @pytest.mark.parametrize(
        "feature, overrides, supported",
        CAPABILITY_CASES,
        ids=[
            re.sub(r"\W+", "-", case[0]).strip("-")
            for case in CAPABILITY_CASES
        ],
    )
    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_spec_builds_exactly_when_its_system_lists_the_feature(
        self, name, feature, overrides, supported
    ):
        system = SYSTEMS[name]
        fields = {
            "scale": "micro",
            "system": name,
            "topology": system.topologies[0],
            **overrides,
        }
        if supported(system):
            assert RunSpec(**fields).spec_version == system.spec_version
        else:
            with pytest.raises(ValueError) as excinfo:
                RunSpec(**fields)
            assert str(excinfo.value) == unsupported_message(name, feature)

    @pytest.mark.parametrize("field", SYSTEM_PARAM_FIELDS)
    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_params_field_builds_only_on_the_system_that_reads_it(
        self, name, field
    ):
        system = SYSTEMS[name]
        base = RunSpec(
            scale="micro", system=name, topology=system.topologies[0]
        )
        if system.params_field == field:
            key = min(system.params_keys)
            spec = base.with_params(**{field: {key: 1}})
            assert spec.system_params() == {key: 1}
        else:
            with pytest.raises(ValueError) as excinfo:
                base.with_params(**{field: {"packets_per_slice": 4}})
            assert str(excinfo.value) == unsupported_message(name, field)

    @pytest.mark.parametrize(
        "fields, kind, registry",
        [
            ({"scheduler": "warp"}, "scheduler", SCHEDULERS),
            (
                {"scheduler_params": {"warp": 1}},
                "scheduler_params key",
                SYSTEMS["negotiator"].params_keys,
            ),
            (
                {
                    "system": "relay",
                    "topology": "thinclos",
                    "scheduler_params": {"warp": 1},
                },
                "scheduler_params key",
                SYSTEMS["relay"].params_keys,
            ),
            (
                {
                    "system": "rotor",
                    "topology": "thinclos",
                    "rotor_params": {"warp": 1},
                },
                "rotor_params key",
                SYSTEMS["rotor"].params_keys,
            ),
            (
                {
                    "system": "adaptive",
                    "topology": "thinclos",
                    "adaptive_params": {"warp": 1},
                },
                "adaptive_params key",
                SYSTEMS["adaptive"].params_keys,
            ),
        ],
        ids=["scheduler", "negotiator", "relay", "rotor", "adaptive"],
    )
    def test_unknown_scheduler_or_params_key_fails_at_construction(
        self, fields, kind, registry
    ):
        with pytest.raises(ValueError) as excinfo:
            RunSpec(scale="micro", **fields)
        assert str(excinfo.value) == unknown_name_message(
            kind, ["warp"], registry
        )

    def test_params_keys_are_what_each_resolver_accepts(self):
        assert SYSTEMS["negotiator"].params_keys == {
            "iterations", "alpha", "phase_capacity_bytes",
        }
        assert SYSTEMS["rotor"].params_keys == {
            "packets_per_slice", "reconfiguration_delay_ns", "vlb_relay",
        }
        assert "max_candidates" in SYSTEMS["relay"].params_keys
        assert "ewma_alpha" in SYSTEMS["adaptive"].params_keys


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


class TestScenarios:
    def test_registry_covers_paper_and_extended_patterns(self):
        assert {
            "poisson", "incast", "alltoall", "hotspot", "permutation",
            "bursty", "ring-allreduce", "shuffle",
        } <= set(SCENARIOS)

    def test_build_workload_is_deterministic(self):
        spec = tiny_spec(scenario="hotspot")
        a = build_workload(spec, TINY)
        b = build_workload(spec, TINY)
        assert [(f.fid, f.src, f.dst, f.size_bytes, f.arrival_ns) for f in a] \
            == [(f.fid, f.src, f.dst, f.size_bytes, f.arrival_ns) for f in b]

    def test_seed_changes_workload(self):
        a = build_workload(tiny_spec(scenario="permutation"), TINY)
        b = build_workload(tiny_spec(scenario="permutation", seed=1), TINY)
        assert [(f.src, f.dst) for f in a] != [(f.src, f.dst) for f in b]

    def test_unknown_scenario_param_rejected(self):
        spec = tiny_spec(scenario_params={"bogus": 1})
        with pytest.raises(ValueError, match="bogus"):
            build_workload(spec, TINY)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_workload(tiny_spec(scenario="quantum"), TINY)

    def test_ring_allreduce_auto_gap_vs_explicit(self):
        auto = build_workload(
            tiny_spec(scenario="ring-allreduce", load=1.0), TINY
        )
        explicit = build_workload(
            tiny_spec(
                scenario="ring-allreduce",
                load=1.0,
                scenario_params={"phase_gap_ns": 500.0},
            ),
            TINY,
        )
        assert sorted({f.arrival_ns for f in explicit}) != sorted(
            {f.arrival_ns for f in auto}
        )
        # Zero gap is unrepresentable and must say so, not silently
        # fall back to auto pacing.
        with pytest.raises(ValueError, match="phase_gap_ns"):
            build_workload(
                tiny_spec(
                    scenario="ring-allreduce",
                    load=1.0,
                    scenario_params={"phase_gap_ns": 0.0},
                ),
                TINY,
            )


# ---------------------------------------------------------------------------
# execution and collectors
# ---------------------------------------------------------------------------


class TestExecuteSpec:
    def test_matches_reference_runner(self):
        """execute_spec reproduces the experiments' direct-run path.

        The executor adds exactly one thing on top: the ``core_used``
        observability key in ``extra`` (direct runs don't report it)."""
        spec = tiny_spec()
        summary = execute_spec(spec).to_dict()
        assert summary["extra"].pop("core_used") == tiny_core()
        assert summary == reference_summary(sim_config(TINY)).to_dict()

    def test_collectors_fill_extra(self):
        spec = tiny_spec(
            scenario="incast",
            scenario_params={"degree": 3},
            load=1.0,
            seed=7,
            duration_ns=None,
            until_complete=True,
            max_ns=50_000_000.0,
            collect=("incast_finish_ns", "tag_finish_ns"),
        )
        summary = execute_spec(spec)
        assert summary.extra["incast_finish_ns"] > 0
        assert "incast" in summary.extra["tag_finish_ns"]
        # Everything in extra must survive the JSON store.
        assert json.loads(json.dumps(summary.to_dict())) == summary.to_dict()

    def test_unknown_collector_rejected(self):
        with pytest.raises(ValueError, match="collect"):
            execute_spec(tiny_spec(collect=("nope",)))

    def test_scheduler_variant_runs(self):
        summary = execute_spec(tiny_spec(scheduler="data-size"))
        assert summary.num_flows > 0

    def test_relay_system_runs_and_differs_from_base(self):
        base = execute_spec(tiny_spec(topology="thinclos", load=1.0))
        relay = execute_spec(
            tiny_spec(system="relay", topology="thinclos", load=1.0)
        )
        assert relay.num_flows == base.num_flows
        # Same workload, different forwarding: results need not match, but
        # the relay path must at least run to completion and deliver.
        assert relay.goodput_normalized > 0

    def test_rotor_system_runs_and_honors_rotor_params(self):
        base = tiny_spec(system="rotor", topology="thinclos", load=0.5)
        summary = execute_spec(base)
        assert summary.num_flows > 0
        assert summary.goodput_normalized > 0
        no_vlb = execute_spec(
            base.with_params(rotor_params={"vlb_relay": False})
        )
        assert no_vlb.num_flows == summary.num_flows
        # Different forwarding discipline must actually change the run.
        assert (
            no_vlb.goodput_gbps,
            no_vlb.mice_fct_p99_ns,
        ) != (summary.goodput_gbps, summary.mice_fct_p99_ns)

    def test_adaptive_system_runs_and_honors_adaptive_params(self):
        base = tiny_spec(system="adaptive", topology="thinclos", load=0.5)
        summary = execute_spec(base)
        assert summary.num_flows > 0
        assert summary.goodput_normalized > 0
        rotorlike = execute_spec(
            base.with_params(adaptive_params={"residual_ports": 2})
        )
        assert rotorlike.num_flows == summary.num_flows
        # Dedicating every plane to the rotation must change the run.
        assert (
            rotorlike.goodput_gbps,
            rotorlike.mice_fct_p99_ns,
        ) != (summary.goodput_gbps, summary.mice_fct_p99_ns)

    def test_adaptive_accepts_failure_plans(self):
        healthy = execute_spec(
            tiny_spec(system="adaptive", topology="thinclos", load=1.0)
        )
        failed = execute_spec(
            tiny_spec(
                system="adaptive",
                topology="thinclos",
                load=1.0,
                failure_params={
                    "plan": "random",
                    "ratio": 0.2,
                    "fail_at_ns": 0.0,
                    "repair_at_ns": SHORT_NS * 10,
                    "seed": 5,
                },
            )
        )
        assert failed.goodput_normalized < healthy.goodput_normalized

    def test_summary_extra_reports_core_used(self):
        """Observability only: the executor surfaces which core ran in
        RunSummary.extra, never inside the engine's own summary()."""
        summary = execute_spec(tiny_spec())
        assert summary.extra["core_used"] == tiny_core()
        adaptive = execute_spec(
            tiny_spec(system="adaptive", topology="thinclos")
        )
        assert adaptive.extra["core_used"] in ("scalar", "vectorized")

    def test_rotor_accepts_failure_plans(self):
        healthy = execute_spec(
            tiny_spec(system="rotor", topology="thinclos", load=1.0)
        )
        failed = execute_spec(
            tiny_spec(
                system="rotor",
                topology="thinclos",
                load=1.0,
                failure_params={
                    "plan": "random",
                    "ratio": 0.2,
                    "fail_at_ns": 0.0,
                    "repair_at_ns": SHORT_NS * 10,
                    "seed": 5,
                },
            )
        )
        assert failed.goodput_normalized < healthy.goodput_normalized

    def test_epoch_params_match_reference_helpers(self):
        """piggyback=False reproduces epoch_config_without_piggyback."""
        from repro.sim.config import EpochConfig, epoch_config_without_piggyback

        spec = tiny_spec(epoch_params={"piggyback": False})
        summary = execute_spec(spec).to_dict()
        assert summary["extra"].pop("core_used") == tiny_core()
        slots = make_topology(TINY, "parallel").predefined_slots
        epoch = epoch_config_without_piggyback(EpochConfig(), 100.0, slots)
        reference = reference_summary(sim_config(TINY, epoch=epoch))
        assert summary == reference.to_dict()

    def test_unknown_epoch_param_rejected(self):
        with pytest.raises(ValueError, match="epoch_params"):
            execute_spec(tiny_spec(epoch_params={"warp_factor": 9}))

    def test_unknown_failure_plan_rejected(self):
        with pytest.raises(ValueError, match="failure plan"):
            execute_spec(tiny_spec(failure_params={"plan": "meteor"}))

    def test_unknown_instrument_key_rejected(self):
        with pytest.raises(ValueError, match="instrument"):
            execute_spec(tiny_spec(instrument={"telescope": True}))

    def test_failure_spec_degrades_goodput(self):
        healthy = execute_spec(tiny_spec(load=1.0))
        failed = execute_spec(
            tiny_spec(
                load=1.0,
                failure_params={
                    "plan": "random",
                    "ratio": 0.2,
                    "fail_at_ns": 0.0,
                    "repair_at_ns": SHORT_NS * 10,
                    "seed": 5,
                },
            )
        )
        assert failed.goodput_normalized < healthy.goodput_normalized


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        spec = tiny_spec()
        summary = execute_spec(spec)
        store.put(spec, summary, elapsed_s=0.5)
        loaded = store.get(spec)
        assert loaded.to_dict() == summary.to_dict()
        assert store.load_specs()[spec.content_hash] == spec

    def test_last_row_wins(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        spec = tiny_spec()
        summary = execute_spec(spec)
        store.put(spec, summary)
        newer = RunSummary.from_dict(summary.to_dict())
        newer.extra["marker"] = 1
        store.put(spec, newer)
        assert store.get(spec).extra == {
            "core_used": tiny_core(), "marker": 1
        }
        assert store.compact() == 1
        assert len(store.rows()) == 1

    def test_compact_keeps_stale_hashes(self, tmp_path):
        """compact() dedupes per hash but must not drop rows whose spec no
        longer matches the current grid — the store is append-only history,
        and an old grid may be re-requested later."""
        store = ResultStore(tmp_path / "results.jsonl")
        old = tiny_spec(scenario="hotspot")
        new = tiny_spec(
            scenario="hotspot", scenario_params={"hot_weight": 0.9}
        )
        old_summary = execute_spec(old)
        store.put(old, old_summary)
        store.put(old, old_summary)  # duplicate to give compact work
        store.put(new, execute_spec(new))
        assert store.compact() == 1  # only the duplicate drops
        hashes = store.completed_hashes()
        assert hashes == {old.content_hash, new.content_hash}
        # The stale row still resolves after compaction.
        assert store.get(old).to_dict() == old_summary.to_dict()

    def test_missing_file_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "absent.jsonl")
        assert store.rows() == []
        assert store.load() == {}
        assert not store.exists()

    def test_torn_line_skipped_so_resume_survives_a_crash(self, tmp_path):
        """A sweep killed mid-append must not poison the store."""
        store = ResultStore(tmp_path / "results.jsonl")
        spec = tiny_spec()
        store.put(spec, execute_spec(spec))
        with store.path.open("a") as handle:
            handle.write('{"spec_hash": "torn-off-mid-wri')  # no newline
        assert len(store.rows()) == 1
        assert store.skipped_rows == 1
        assert store.get(spec) is not None

    def test_strict_mode_reports_corruption_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        store = ResultStore(path)
        assert store.rows() == []  # lenient default
        with pytest.raises(StoreError, match="bad.jsonl:1"):
            store.rows(strict=True)


class TestStoreIntegrity:
    """Per-row checksums, atomic compaction, and the content digest
    (DESIGN.md §13)."""

    def test_every_written_row_is_checksummed(self, tmp_path):
        from repro.sweep.store import CHECKSUM_FIELD, row_checksum

        store = ResultStore(tmp_path / "s.jsonl")
        for seed in (1, 2):
            spec = tiny_spec(seed=seed)
            store.put(spec, execute_spec(spec))
        report = store.verify()
        assert report.ok
        assert report.rows == report.lines == report.unique_hashes == 2
        assert report.legacy_rows == 0
        for row in store.rows():
            assert row[CHECKSUM_FIELD] == row_checksum(row)

    def test_corrupted_row_detected_and_never_served(self, tmp_path):
        """A bit flip inside a stored summary must read as corruption, not
        as a subtly wrong result."""
        store = ResultStore(tmp_path / "s.jsonl")
        spec = tiny_spec()
        store.put(spec, execute_spec(spec))
        row = json.loads(store.path.read_text())
        row["summary"]["flows_completed"] = 10**9  # silent data corruption
        store.path.write_text(json.dumps(row, sort_keys=True) + "\n")
        assert store.rows() == []  # lenient: skipped, will re-run
        assert store.skipped_rows == 1
        assert store.get(spec) is None
        report = store.verify()
        assert not report.ok
        assert report.checksum_mismatches == 1
        assert report.torn_lines == 0
        assert "s.jsonl:1" in report.problems[0]
        with pytest.raises(StoreError, match="checksum"):
            store.rows(strict=True)

    def test_legacy_rows_load_and_compact_upgrades_them(self, tmp_path):
        from repro.sweep.store import CHECKSUM_FIELD

        store = ResultStore(tmp_path / "s.jsonl")
        spec = tiny_spec()
        summary = execute_spec(spec)
        store.put(spec, summary)
        row = json.loads(store.path.read_text())
        del row[CHECKSUM_FIELD]  # a row written before checksums existed
        store.path.write_text(json.dumps(row, sort_keys=True) + "\n")
        assert store.get(spec).to_dict() == summary.to_dict()
        assert store.verify().legacy_rows == 1
        store.compact()
        report = store.verify()
        assert report.legacy_rows == 0 and report.ok
        assert store.get(spec).to_dict() == summary.to_dict()

    def test_compact_canonicalizes_order_and_drops_torn_lines(
        self, tmp_path
    ):
        store = ResultStore(tmp_path / "s.jsonl")
        specs = [tiny_spec(seed=seed) for seed in (5, 1, 3)]
        for spec in specs:
            store.put(spec, execute_spec(spec))
        with store.path.open("a") as handle:
            handle.write('{"torn": ')
        assert store.compact() == 1  # the torn line
        hashes = [row["spec_hash"] for row in store.rows()]
        assert hashes == sorted(hashes)
        assert store.verify().ok
        # Already-canonical stores are left untouched (no rewrite).
        sig_before = store.path.stat().st_mtime_ns
        assert store.compact() == 0
        assert store.path.stat().st_mtime_ns == sig_before

    def test_compact_is_atomic_under_crash(self, tmp_path, monkeypatch):
        """A crash at any point during compact() leaves the original store
        fully intact — never a half-written file."""
        import os as os_module

        store = ResultStore(tmp_path / "s.jsonl")
        spec = tiny_spec()
        summary = execute_spec(spec)
        store.put(spec, summary)
        store.put(spec, summary)  # duplicate: compact has work to do
        before = store.path.read_bytes()

        def boom(*args):
            raise OSError("simulated crash")

        # Crash while flushing the temp file, before the swap.
        with monkeypatch.context() as m:
            m.setattr("repro.sweep.backends.os.fsync", boom)
            with pytest.raises(OSError, match="simulated crash"):
                store.compact()
        assert store.path.read_bytes() == before
        assert store.get(spec).to_dict() == summary.to_dict()

        # Crash at the atomic swap itself.
        real_replace = os_module.replace
        with monkeypatch.context() as m:
            m.setattr("repro.sweep.backends.os.replace", boom)
            with pytest.raises(OSError, match="simulated crash"):
                store.compact()
        assert store.path.read_bytes() == before
        assert real_replace is os_module.replace  # patch scoped correctly

        # With the "crashes" over, compaction completes and verifies.
        assert store.compact() == 1
        assert store.verify().ok
        assert not store.path.with_suffix(".tmp").exists()
        assert store.get(spec).to_dict() == summary.to_dict()

    def test_content_digest_ignores_order_duplicates_and_elapsed(
        self, tmp_path
    ):
        spec_a, spec_b = tiny_spec(seed=1), tiny_spec(seed=2)
        summary_a, summary_b = execute_spec(spec_a), execute_spec(spec_b)

        one = ResultStore(tmp_path / "one.jsonl")
        one.put(spec_a, summary_a, elapsed_s=0.5)
        one.put(spec_b, summary_b, elapsed_s=0.1)

        other = ResultStore(tmp_path / "other.jsonl")
        other.put(spec_b, summary_b, elapsed_s=9.9)
        other.put(spec_a, summary_a, elapsed_s=1.5)
        other.put(spec_a, summary_a, elapsed_s=2.5)  # superseded duplicate

        assert one.content_digest() == other.content_digest()

        # But an actual result difference changes the digest.
        differs = ResultStore(tmp_path / "differs.jsonl")
        mutated = RunSummary.from_dict(summary_a.to_dict())
        mutated.extra["marker"] = 1
        differs.put(spec_a, mutated, elapsed_s=0.5)
        differs.put(spec_b, summary_b, elapsed_s=0.1)
        assert differs.content_digest() != one.content_digest()

    def test_get_is_one_parse_per_file_state(self, tmp_path, monkeypatch):
        """The lookup path must not re-read the whole file per call: a
        batch of get()s costs one rows() pass, and only a file change
        (our put, or another process appending) triggers a reparse."""
        specs = [tiny_spec(seed=seed) for seed in (1, 2, 3)]
        summaries = {s.content_hash: execute_spec(s) for s in specs}
        writer = ResultStore(tmp_path / "s.jsonl")
        for spec in specs:
            writer.put(spec, summaries[spec.content_hash])

        parses = 0
        real_rows = ResultStore.rows

        def counting_rows(self, strict=False):
            nonlocal parses
            parses += 1
            return real_rows(self, strict)

        monkeypatch.setattr(ResultStore, "rows", counting_rows)
        store = ResultStore(tmp_path / "s.jsonl")
        for spec in specs:
            assert store.get(spec) is not None
        store.completed_hashes()
        store.load()
        assert parses == 1

        # Our own append invalidates: exactly one more parse.
        extra = tiny_spec(seed=4)
        store.put(extra, execute_spec(extra))
        assert store.get(extra) is not None
        assert parses == 2
        store.get(specs[0])
        assert parses == 2

        # An append from another process changes the stat signature.
        foreign = tiny_spec(seed=5)
        writer.put(foreign, execute_spec(foreign))
        assert store.get(foreign) is not None
        assert parses == 3


# ---------------------------------------------------------------------------
# the runner: determinism and resume
# ---------------------------------------------------------------------------


class TestSweepRunner:
    def test_parallel_bit_identical_to_serial(self):
        """The acceptance contract: jobs=4 == jobs=1 over >= 8 specs,
        plus one spec per registered system."""
        specs = grid_specs() + [
            tiny_spec(load=0.5, **system_spec_fields(name)) for name in SYSTEMS
        ]
        assert len(specs) >= 8
        assert len({spec.content_hash for spec in specs}) == len(specs)
        serial = SweepRunner(jobs=1).run(specs)
        parallel = SweepRunner(jobs=4).run(specs)
        assert set(serial) == set(parallel)
        for spec_hash, summary in serial.items():
            assert summary.to_dict() == parallel[spec_hash].to_dict()

    def test_resume_executes_zero_runs(self, tmp_path):
        specs = grid_specs()
        store = ResultStore(tmp_path / "sweep.jsonl")
        first = SweepRunner(jobs=2, store=store)
        initial = first.run(specs)
        assert first.executed == len(specs)

        resumed = SweepRunner(jobs=2, store=store, resume=True)
        results = resumed.run(specs)
        assert resumed.executed == 0
        assert resumed.cached == len(specs)
        for spec_hash, summary in initial.items():
            assert results[spec_hash].to_dict() == summary.to_dict()

    def test_partial_resume_runs_only_new_specs(self, tmp_path):
        store = ResultStore(tmp_path / "sweep.jsonl")
        old = tiny_spec()
        SweepRunner(store=store).run([old])
        new = tiny_spec(load=0.5)
        runner = SweepRunner(store=store, resume=True)
        results = runner.run([old, new])
        assert runner.executed == 1
        assert runner.cached == 1
        assert set(results) == {old.content_hash, new.content_hash}

    def test_duplicate_specs_run_once(self):
        runner = SweepRunner()
        results = runner.run([tiny_spec(), tiny_spec()])
        assert runner.executed == 1
        assert len(results) == 1

    def test_memo_spans_run_calls_without_a_store(self):
        """One runner handed to several experiments executes shared specs
        once — the `repro run --all` cross-experiment dedupe contract."""
        runner = SweepRunner()
        first = runner.run([tiny_spec()])
        second = runner.run([tiny_spec(), tiny_spec(load=0.5)])
        assert runner.executed == 2  # the shared spec ran only once
        assert runner.cached == 1
        spec_hash = tiny_spec().content_hash
        assert second[spec_hash].to_dict() == first[spec_hash].to_dict()

    def test_resume_without_store_rejected(self):
        with pytest.raises(ValueError, match="store"):
            SweepRunner(resume=True)

    def test_stale_store_rows_are_reported_not_served(self, tmp_path):
        """Changing scenario params strands the old rows: the new spec
        re-runs (correctness) and the stale rows are surfaced (telemetry),
        instead of either silently re-running or wrongly cache-hitting."""
        store = ResultStore(tmp_path / "sweep.jsonl")
        old = tiny_spec(scenario="hotspot")
        SweepRunner(store=store).run([old])

        new = tiny_spec(
            scenario="hotspot", scenario_params={"hot_weight": 0.9}
        )
        assert new.content_hash != old.content_hash
        runner = SweepRunner(store=store, resume=True)
        runner.run([new])
        assert runner.executed == 1  # params changed -> must re-run
        assert runner.cached == 0
        assert runner.stale_stored_hashes() == {old.content_hash}

        # Re-requesting the old grid clears its staleness.
        runner.run([old])
        assert runner.stale_stored_hashes() == set()

    def test_stale_hashes_empty_without_store(self):
        assert SweepRunner().stale_stored_hashes() == set()


# ---------------------------------------------------------------------------
# experiments declare their runs as specs
# ---------------------------------------------------------------------------


class TestExperimentSpecs:
    def test_fig9_sweep_through_store_caches(self, tmp_path):
        from repro.experiments.fig9_main_results import load_specs

        grid = load_specs(TINY, loads=(0.1,))
        specs = [s for per_load in grid.values() for s in per_load.values()]
        assert len(specs) == 6  # six systems at one load
        assert len({s.content_hash for s in specs}) == 6

    def test_fig7a_and_fig7b_specs_have_collectors(self):
        from repro.experiments.fig7_alltoall import alltoall_spec
        from repro.experiments.fig7_incast import incast_spec

        a = incast_spec(TINY, "parallel", degree=2)
        assert a.collect == ("incast_finish_ns",)
        assert a.until_complete
        b = alltoall_spec(TINY, "oblivious", flow_kb=1)
        assert b.system == "oblivious" and b.topology == "thinclos"
        assert b.collect == ("alltoall_goodput_gbps",)

    def test_fig6_cached_rerun_is_identical(self, tmp_path):
        from repro.experiments import fig6_fct_cdf

        store = ResultStore(tmp_path / "fig6.jsonl")
        hot = fig6_fct_cdf.run(TINY, runner=SweepRunner(store=store))
        cold_runner = SweepRunner(store=store, resume=True)
        cold = fig6_fct_cdf.run(TINY, runner=cold_runner)
        assert cold_runner.executed == 0
        assert cold.rows == hot.rows


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(*args: str, cwd=None) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )


class TestSweepCli:
    def test_list_scenarios(self):
        proc = run_cli("sweep", "--list-scenarios")
        assert proc.returncode == 0
        assert "hotspot" in proc.stdout
        assert "ring-allreduce" in proc.stdout

    def test_dry_run_prints_grid(self):
        proc = run_cli(
            "sweep", "--scale", "tiny", "--dry-run",
            "--load", "0.1", "--load", "0.2",
        )
        assert proc.returncode == 0
        assert "2 specs" in proc.stdout

    def test_unknown_scenario_fails_cleanly(self):
        proc = run_cli("sweep", "--scenario", "quantum", "--dry-run")
        assert proc.returncode == 2
        assert "unknown scenario" in proc.stderr

    def test_invalid_load_fails_cleanly(self, tmp_path):
        """A zero or non-finite load fails the sweep and campaign dry runs."""
        store = str(tmp_path / "campaign.db")
        for load in ("0", "inf", "nan"):
            grid = ("--scale", "micro", "--load", load, "--seed", "1")
            for command in (("sweep",), ("campaign", "run", "--store", store)):
                proc = run_cli(*command, *grid, "--dry-run")
                assert proc.returncode == 2
                assert proc.stderr.strip() == "load must be positive and finite"
        assert not Path(store).exists()

    def test_bad_scenario_param_rejected_even_on_dry_run(self):
        proc = run_cli(
            "sweep", "--scale", "tiny",
            "--scenario", "poisson:bogus=1", "--dry-run",
        )
        assert proc.returncode == 2
        assert "bogus" in proc.stderr

    def test_oblivious_forced_onto_thinclos_and_deduped(self):
        proc = run_cli(
            "sweep", "--scale", "tiny", "--system", "oblivious",
            "--topology", "parallel", "--topology", "thinclos",
            "--load", "0.1", "--dry-run",
        )
        assert proc.returncode == 0
        assert "oblivious thinclos" in proc.stdout
        assert "oblivious parallel" not in proc.stdout
        assert "1 specs" in proc.stdout  # duplicates collapsed

    def test_unsupported_feature_fails_the_dry_run(self, tmp_path):
        grid = (
            "--scale", "tiny", "--system", "oblivious",
            "--scheduler", "stateful", "--dry-run",
        )
        store = str(tmp_path / "campaign.db")
        for command in (("sweep",), ("campaign", "run", "--store", store)):
            proc = run_cli(*command, *grid)
            assert proc.returncode == 2
            assert proc.stderr.strip() == unsupported_message(
                "oblivious", "scheduler 'stateful'"
            )
        assert not Path(store).exists()

    def test_unknown_scheduler_fails_the_dry_run(self):
        proc = run_cli(
            "sweep", "--scale", "tiny", "--scheduler", "warp", "--dry-run"
        )
        assert proc.returncode == 2
        assert proc.stderr.strip() == unknown_name_message(
            "scheduler", ["warp"], SCHEDULERS
        )

    def test_every_system_on_its_own_fabrics(self):
        args = ["sweep", "--scale", "tiny", "--load", "0.5", "--dry-run"]
        for name in SYSTEMS:
            args += ["--system", name]
        proc = run_cli(
            *args, "--topology", "parallel", "--topology", "thinclos"
        )
        assert proc.returncode == 0, proc.stderr
        assert "6 specs" in proc.stdout
        for name, system in SYSTEMS.items():
            for fabric in ("parallel", "thinclos"):
                listed = f" {name} {fabric} poisson" in proc.stdout
                assert listed == (fabric in system.topologies)

    def test_explicit_default_param_hashes_like_default(self):
        """CLI specs carry resolved params, so the hash is self-describing."""
        base = (
            "sweep", "--scale", "tiny", "--scenario", "hotspot",
            "--load", "0.1", "--dry-run",
        )
        explicit = (
            "sweep", "--scale", "tiny",
            "--scenario", "hotspot:hot_weight=0.75",  # the registered default
            "--load", "0.1", "--dry-run",
        )
        a, b = run_cli(*base), run_cli(*explicit)
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout.split()[0] == b.stdout.split()[0]

    def test_zero_jobs_rejected_cleanly(self):
        for cmd in (
            ("sweep", "--scale", "tiny", "--jobs", "0", "--dry-run"),
            ("run", "fig6", "--scale", "tiny", "--jobs", "0"),
        ):
            proc = run_cli(*cmd)
            assert proc.returncode == 2
            assert "jobs" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_sweep_json_and_resume(self, tmp_path):
        args = (
            "sweep", "--scale", "tiny", "--scenario", "poisson",
            "--load", "0.1", "--duration-ms", "0.15",
            "--store", str(tmp_path / "s.jsonl"), "--json",
        )
        first = run_cli(*args)
        assert first.returncode == 0, first.stderr
        payload = json.loads(first.stdout)
        assert payload["runs"][0]["summary"]["num_flows"] > 0
        assert payload["runs"][0]["cached"] is False
        assert payload["runs"][0]["attempts"] == 1
        assert payload["runs"][0]["attempt_statuses"] == ["ok"]
        assert payload["totals"] == {
            "specs": 1, "executed": 1, "cached": 0,
            "retried": 0, "quarantined": 0, "failed": 0,
        }
        assert "1 executed" in first.stderr

        second = run_cli(*args, "--resume")
        assert second.returncode == 0, second.stderr
        assert "0 executed, 1 cached" in second.stderr
        cached_payload = json.loads(second.stdout)
        # The simulation results are identical; only the caching metadata
        # (cached/attempts/totals) reflects that nothing re-executed.
        for row, cached_row in zip(payload["runs"], cached_payload["runs"]):
            assert cached_row["spec_hash"] == row["spec_hash"]
            assert cached_row["spec"] == row["spec"]
            assert cached_row["summary"] == row["summary"]
            assert cached_row["cached"] is True
            assert cached_row["attempts"] == 0
            assert cached_row["attempt_statuses"] == []
        assert cached_payload["totals"] == {
            "specs": 1, "executed": 0, "cached": 1,
            "retried": 0, "quarantined": 0, "failed": 0,
        }

    def test_run_json_output(self):
        proc = run_cli("run", "fig7a", "--scale", "tiny", "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["results"][0]["experiment"] == "Fig 7a"
        assert payload["results"][0]["rows"]

    def test_resume_reports_stale_rows(self, tmp_path):
        store = str(tmp_path / "s.jsonl")
        base = (
            "sweep", "--scale", "tiny", "--load", "0.1",
            "--duration-ms", "0.15", "--store", store,
        )
        first = run_cli(*base, "--scenario", "hotspot")
        assert first.returncode == 0, first.stderr
        # Same grid with a changed parameter: old row goes stale.
        second = run_cli(
            *base, "--scenario", "hotspot:hot_weight=0.9", "--resume"
        )
        assert second.returncode == 0, second.stderr
        assert "1 executed, 0 cached" in second.stdout
        assert "1 stored rows ignored (stale spec hashes" in second.stdout

    def test_run_requires_experiments_or_all(self):
        proc = run_cli("run")
        assert proc.returncode == 2
        assert "--all" in proc.stderr

    def test_run_all_rejects_explicit_names(self):
        proc = run_cli("run", "fig6", "--all")
        assert proc.returncode == 2

    def test_run_with_store_is_resumable(self, tmp_path):
        """The reproduce-all contract at experiment granularity: a second
        invocation against the same store executes zero simulations."""
        store = str(tmp_path / "repro.jsonl")
        args = (
            "run", "fig6", "fig7a", "--scale", "micro",
            "--store", store, "--json",
        )
        first = run_cli(*args)
        assert first.returncode == 0, first.stderr
        assert "0 simulations executed" not in first.stderr
        second = run_cli(*args)
        assert second.returncode == 0, second.stderr
        assert "0 simulations executed" in second.stderr
        assert json.loads(second.stdout) == json.loads(first.stdout)


class TestStoreCli:
    """``repro store verify`` / ``repro store compact``."""

    def seeded_store(self, tmp_path) -> str:
        path = str(tmp_path / "s.jsonl")
        proc = run_cli(
            "sweep", "--scale", "tiny", "--scenario", "poisson",
            "--load", "0.1", "--load", "0.25",
            "--duration-ms", "0.15", "--store", path,
        )
        assert proc.returncode == 0, proc.stderr
        return path

    def test_verify_ok_with_digest(self, tmp_path):
        path = self.seeded_store(tmp_path)
        proc = run_cli("store", "verify", path, "--digest")
        assert proc.returncode == 0, proc.stderr
        assert "2 valid row(s), 2 unique spec(s)" in proc.stdout
        assert "content digest: " in proc.stdout
        digest = proc.stdout.rsplit("content digest: ", 1)[1].strip()
        assert digest == ResultStore(path).content_digest()

    def test_verify_reports_corruption_and_compact_heals(self, tmp_path):
        path = self.seeded_store(tmp_path)
        with open(path, "a") as handle:
            handle.write('{"spec_hash": "torn-off-mid')
        proc = run_cli("store", "verify", path)
        assert proc.returncode == 1
        assert "BAD" in proc.stdout
        assert "torn line(s)" in proc.stderr
        compacted = run_cli("store", "compact", path)
        assert compacted.returncode == 0, compacted.stderr
        assert "1 row(s) dropped" in compacted.stdout
        assert "2 row(s) kept" in compacted.stdout
        healed = run_cli("store", "verify", path)
        assert healed.returncode == 0
        assert "2 valid row(s)" in healed.stdout

    def test_verify_missing_store_is_usage_error(self, tmp_path):
        proc = run_cli("store", "verify", str(tmp_path / "absent.jsonl"))
        assert proc.returncode == 2
        assert "no such store" in proc.stderr


BAD_RUN_FLAGS = [
    (["--jobs", "0"], "--jobs must be at least 1"),
    (["--retries", "-1"], "--retries must be non-negative"),
    (["--backoff-s", "-1"], "--backoff-s must be non-negative and finite"),
    (["--backoff-s", "inf"], "--backoff-s must be non-negative and finite"),
    (["--timeout-s", "0"], "--timeout-s must be positive and finite"),
    (["--timeout-s", "nan"], "--timeout-s must be positive and finite"),
    # Below 1 ns the cadence would truncate to 0 ns.
    (
        ["--telemetry-cadence-us", "1e-4"],
        "--telemetry-cadence-us must be at least 0.001",
    ),
    (
        ["--telemetry-cadence-us", "0"],
        "--telemetry-cadence-us must be at least 0.001",
    ),
    (
        ["--telemetry-cadence-us", "nan"],
        "--telemetry-cadence-us must be at least 0.001",
    ),
    (["--telemetry-cadence-us", "inf"], "--telemetry-cadence-us must be finite"),
    (["--lease-ttl-s", "nan"], "--lease-ttl-s must be positive and finite"),
    (["--lease-batch", "0"], "--lease-batch must be at least 1"),
]
"""Every run flag's bad values and exact messages (the lease flags exist
on ``campaign run`` only)."""


class TestSweepCliResilience:
    """The fault-tolerance flags, minus chaos (chaos CLI runs live in
    tests/test_chaos.py)."""

    def test_negative_retries_rejected(self, tmp_path):
        proc = run_cli(
            "sweep", "--scale", "tiny", "--load", "0.1",
            "--duration-ms", "0.15",
            "--store", str(tmp_path / "s.jsonl"), "--retries", "-1",
        )
        assert proc.returncode == 2
        assert "--retries" in proc.stderr

    def test_quarantine_without_default_path_still_derives_sidecar(
        self, tmp_path
    ):
        """--on-error quarantine with only a store derives the sidecar
        path; a clean sweep leaves no sidecar behind."""
        store = str(tmp_path / "s.jsonl")
        proc = run_cli(
            "sweep", "--scale", "tiny", "--load", "0.1",
            "--duration-ms", "0.15", "--store", store,
            "--on-error", "quarantine", "--retries", "1",
        )
        assert proc.returncode == 0, proc.stderr
        assert not (tmp_path / "s.quarantine.jsonl").exists()

    def test_zero_timeout_rejected(self, tmp_path):
        proc = run_cli(
            "sweep", "--scale", "tiny", "--load", "0.1",
            "--duration-ms", "0.15",
            "--store", str(tmp_path / "s.jsonl"), "--timeout-s", "0",
        )
        assert proc.returncode == 2
        assert proc.stderr.strip() == "--timeout-s must be positive and finite"

    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "real"])
    @pytest.mark.parametrize(
        "command, flags, message",
        [
            pytest.param(
                command, flags, message, id=f"{command} {' '.join(flags)}"
            )
            for command in ("sweep", "campaign run")
            for flags, message in BAD_RUN_FLAGS
            if command == "campaign run" or "--lease" not in flags[0]
        ],
    )
    def test_bad_run_flag_exits_2_before_anything_runs(
        self, command, flags, message, dry_run, tmp_path, capsys
    ):
        """Both launch paths check every run flag before the dry run, so
        a bad value is one message and exit 2 in either mode: no
        traceback, no run and no store."""
        store = tmp_path / "s.db"
        argv = [
            *command.split(), "--scale", "micro", "--load", "0.5",
            "--seed", "1", "--duration-ms", "0.05", "--store", str(store),
            *flags,
        ]
        assert main(argv + ["--dry-run"] if dry_run else argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == message
        assert list(tmp_path.iterdir()) == []
