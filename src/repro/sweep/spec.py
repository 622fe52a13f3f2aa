"""Frozen, content-addressed description of one simulation run.

A :class:`RunSpec` captures everything needed to reproduce a run — fabric
scale, system, topology, scheduler variant, traffic scenario, load, seed,
duration — as a frozen dataclass.  Its :meth:`~RunSpec.content_hash` is a
SHA-256 over the canonical JSON form, so the same spec hashes identically in
every process and on every platform (CPython's shortest-round-trip float
repr is what JSON emits, and key order is pinned by ``sort_keys``).  That
hash keys the result store: a sweep resumes by skipping every spec whose
hash already has a stored summary.

Determinism contract: a spec fully determines its run.  The workload is
generated from ``random.Random(seed)`` and the simulator from the scale's
config seed, with no shared mutable state between specs — which is why a
process-pool fan-out is bit-identical to a serial loop (DESIGN.md §8).
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace

SPEC_VERSION = 5
"""The newest spec schema this code understands.

The ``spec_version`` a spec *emits* (and therefore hashes) is the oldest
schema able to express it — see :meth:`RunSpec.spec_version` — so schema
growth never invalidates stored hashes of specs that don't use the new
features.

Version history: 1 — the original PR 2 schema; 2 — adds ``epoch_params``,
``failure_params``, ``instrument`` and the ``relay`` system (the full
experiment migration); 3 — adds the ``rotor`` system and ``rotor_params``
(the RotorNet-style baseline); 4 — reserved (streaming execution was
planned as a schema bump but landed hash-neutrally within version 2, so
the number was never emitted); 5 — adds the ``adaptive`` system and
``adaptive_params`` (the demand-aware D3-class baseline).  The ``stream``
field only enters the canonical JSON when non-default — like
``rotor_params`` and ``adaptive_params`` — so every pre-existing spec
keeps its hash."""

Params = tuple[tuple[str, object], ...]

PARAM_FIELDS = (
    "scale_params",
    "scheduler_params",
    "scenario_params",
    "epoch_params",
    "failure_params",
    "instrument",
    "rotor_params",
    "adaptive_params",
)
"""RunSpec fields holding frozen key/value parameter tuples."""

SYSTEMS = ("adaptive", "negotiator", "oblivious", "relay", "rotor")
TOPOLOGIES = ("parallel", "thinclos")


def unknown_name_message(kind: str, names, registry) -> str:
    """The one diagnostic shape for names missing from a registry.

    Every ``system=``/``engine=`` validation site — spec construction,
    spec execution, the CLI's argument rejection, the scale bench — goes
    through this helper, so the message can never drift between entry
    points (the regression in tests/test_cli_and_analysis.py pins it).
    """
    return (
        f"unknown {kind}(s): {', '.join(names)} "
        f"(choose from {', '.join(sorted(registry))})"
    )


def freeze_params(params: Mapping[str, object] | None) -> Params:
    """Canonicalize a parameter mapping into a sorted, hashable tuple."""
    if not params:
        return ()
    for key, value in params.items():
        if value is not None and not isinstance(value, (int, float, str, bool)):
            raise TypeError(
                f"spec parameter {key!r} must be a scalar, got "
                f"{type(value).__name__}"
            )
    return tuple(sorted(params.items()))


def system_spec_fields(kind: str) -> dict:
    """Map an experiment "system" label to RunSpec system/topology fields.

    Experiments label their curves ``parallel``/``thinclos`` (NegotiaToR on
    that fabric), ``oblivious``, ``rotor``, ``adaptive``, or ``relay`` —
    and the oblivious, rotor, and adaptive baselines and the
    selective-relay variant always run on thin-clos, whose AWGR structure
    their schemes need.  This helper is that invariant's single home.
    """
    if kind in ("adaptive", "oblivious", "relay", "rotor"):
        return {"system": kind, "topology": "thinclos"}
    return {"system": "negotiator", "topology": kind}


@dataclass(frozen=True)
class RunSpec:
    """One point of a sweep: a fully reproducible simulation run.

    ``seed`` is the *workload* seed (fed to the scenario generator as
    ``random.Random(seed)``); the simulator's own seed comes from the scale.
    ``load`` is ignored by synchronous scenarios (incast, all-to-all, the
    collectives) but still participates in the hash, so leave it at 1.0
    there.  ``collect`` names extra metrics the runner computes into
    ``RunSummary.extra`` (see :mod:`repro.sweep.runner`).

    ``scale`` normally names a registered scale (micro/tiny/small/paper);
    an ad-hoc :class:`~repro.experiments.common.ExperimentScale` is pinned
    by also setting ``scale_params`` to its fabric shape (use
    :func:`repro.sweep.runner.scale_spec_fields`), so the content hash
    covers the actual fabric rather than an unregistered name.

    ``epoch_params`` overrides the epoch configuration: any
    :class:`~repro.sim.config.EpochConfig` field by name, plus the derived
    knobs ``piggyback`` (False applies the Table 2 no-piggyback protocol)
    and ``reconfiguration_delay_ns`` (the Fig 8 guardband stretch).

    ``failure_params`` declares a link-failure plan (``plan`` is ``random``
    or ``egress-ports`` plus that plan's arguments; negotiator and rotor
    systems).

    ``stream=True`` runs the spec through the streaming path (DESIGN.md
    §11): the workload is generated lazily and the tracker evicts completed
    flows into online accumulators, so memory stays bounded however long
    the trace.  Exact summary fields (counts, goodput) match the
    materialized run; FCT percentiles are reservoir-exact up to the
    reservoir capacity.  Streaming specs cannot request ``collect`` or
    ``instrument`` (those read retained per-flow state).

    ``rotor_params`` configures the ``rotor`` system's
    :class:`~repro.sim.config.RotorConfig` by field name
    (``packets_per_slice``, ``reconfiguration_delay_ns``, ``vlb_relay``);
    like ``stream``, the field enters the canonical JSON only when set, so
    it is hash-neutral for every pre-existing spec.

    ``adaptive_params`` configures the ``adaptive`` system's
    :class:`~repro.sim.config.AdaptiveConfig` by field name
    (``packets_per_slice``, ``reconfiguration_delay_ns``, ``ewma_alpha``,
    ``recompute_slices``, ``residual_ports``); hash-neutral the same way.

    ``instrument`` attaches recorders the ``collect`` metrics read:
    ``bandwidth_bin_ns`` (a :class:`~repro.sim.metrics.BandwidthRecorder`),
    ``pair_bandwidth`` (per-pair keys; negotiator only), ``match_ratio``
    (a :class:`~repro.sim.metrics.MatchRatioRecorder`; negotiator only).

    The ``relay`` system is the selective-relay variant of appendix A.2.2;
    it runs on thin-clos and interprets ``scheduler_params`` as
    :class:`~repro.core.relay.RelayPolicy` overrides.
    """

    scale: str
    scale_params: Params = ()
    system: str = "negotiator"
    topology: str = "parallel"
    scheduler: str = "base"
    scheduler_params: Params = ()
    scenario: str = "poisson"
    scenario_params: Params = ()
    load: float = 1.0
    seed: int = 0
    duration_ns: float | None = None
    priority_queue: bool = True
    without_speedup: bool = False
    until_complete: bool = False
    max_ns: float | None = None
    epoch_params: Params = ()
    failure_params: Params = ()
    instrument: Params = ()
    collect: tuple[str, ...] = ()
    stream: bool = False
    rotor_params: Params = ()
    adaptive_params: Params = ()

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(
                unknown_name_message("system", [self.system], SYSTEMS)
            )
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; choose from {TOPOLOGIES}"
            )
        if self.load <= 0:
            raise ValueError("load must be positive")
        if self.duration_ns is not None and self.duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        # Normalize params passed as dicts so hashing never sees a dict.
        for name in PARAM_FIELDS:
            if isinstance(getattr(self, name), Mapping):
                object.__setattr__(
                    self, name, freeze_params(getattr(self, name))
                )
        object.__setattr__(self, "collect", tuple(self.collect))

    # ------------------------------------------------------------------
    # serialization and hashing
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form (tuples become lists).

        ``stream``, ``rotor_params``, and ``adaptive_params`` are emitted
        only when non-default: all three fields joined the schema after
        stores and baselines existed, and omitting the default keeps the
        canonical JSON — and therefore every stored content hash — of all
        pre-existing specs unchanged.
        """
        payload = {
            "scale": self.scale,
            "scale_params": [list(kv) for kv in self.scale_params],
            "system": self.system,
            "topology": self.topology,
            "scheduler": self.scheduler,
            "scheduler_params": [list(kv) for kv in self.scheduler_params],
            "scenario": self.scenario,
            "scenario_params": [list(kv) for kv in self.scenario_params],
            "load": self.load,
            "seed": self.seed,
            "duration_ns": self.duration_ns,
            "priority_queue": self.priority_queue,
            "without_speedup": self.without_speedup,
            "until_complete": self.until_complete,
            "max_ns": self.max_ns,
            "epoch_params": [list(kv) for kv in self.epoch_params],
            "failure_params": [list(kv) for kv in self.failure_params],
            "instrument": [list(kv) for kv in self.instrument],
            "collect": list(self.collect),
        }
        if self.stream:
            payload["stream"] = True
        if self.rotor_params:
            payload["rotor_params"] = [list(kv) for kv in self.rotor_params]
        if self.adaptive_params:
            payload["adaptive_params"] = [
                list(kv) for kv in self.adaptive_params
            ]
        return payload

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        """Inverse of :meth:`to_dict`."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown RunSpec fields: {sorted(unknown)}")
        kwargs = dict(data)
        for name in PARAM_FIELDS:
            kwargs[name] = tuple(
                (str(k), v) for k, v in kwargs.get(name, ())
            )
        kwargs["collect"] = tuple(kwargs.get("collect", ()))
        return cls(**kwargs)

    @property
    def spec_version(self) -> int:
        """The oldest schema version able to express this spec.

        This — not :data:`SPEC_VERSION` — is what enters the canonical
        JSON: a spec hashes under the schema that introduced the newest
        feature it actually uses, so adding schema versions never moves
        the hashes of specs that predate them.
        """
        if self.system == "adaptive" or self.adaptive_params:
            return 5
        if self.system == "rotor" or self.rotor_params:
            return 3
        return 2

    def canonical_json(self) -> str:
        """The byte-stable JSON form the content hash is taken over."""
        payload = {"spec_version": self.spec_version, **self.to_dict()}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def content_hash(self) -> str:
        """Stable SHA-256 hex digest of the canonical JSON form.

        Memoized per instance: a spec is frozen, and one sweep asks for
        its hash many times (store lookups, dispatch, telemetry).  The
        memo is a plain instance attribute — not a dataclass field — so
        it never reaches ``__eq__``, ``to_dict`` or the canonical JSON;
        :meth:`__getstate__` keeps it out of pickles, and ``replace()``
        builds a new instance that hashes afresh.
        """
        digest = self.__dict__.get("_content_hash")
        if digest is None:
            digest = hashlib.sha256(self.canonical_json().encode()).hexdigest()
            object.__setattr__(self, "_content_hash", digest)
        return digest

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_content_hash", None)
        return state

    @property
    def short_hash(self) -> str:
        """First 12 hex chars — enough for display and log lines."""
        return self.content_hash[:12]

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def scenario_param(self, key: str, default=None):
        """One scenario parameter by name."""
        return dict(self.scenario_params).get(key, default)

    def with_params(self, **changes) -> "RunSpec":
        """A copy with dataclass fields replaced (params auto-frozen)."""
        return replace(self, **changes)

    def label(self) -> str:
        """A compact human-readable identity for tables and logs."""
        parts = [self.system, self.topology, self.scenario]
        if self.scheduler != "base":
            parts.append(self.scheduler)
        parts.append(f"load={self.load:g}")
        parts.append(f"seed={self.seed}")
        if not self.priority_queue:
            parts.append("no-pq")
        if self.without_speedup:
            parts.append("1x")
        if self.stream:
            parts.append("stream")
        return " ".join(parts)
