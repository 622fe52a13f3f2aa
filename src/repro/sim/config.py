"""Simulation configuration and the NegotiaToR epoch timing model.

All quantities follow the paper's evaluation setup (SIGCOMM '24, section 4.1):

* ToR uplink ports run at 100 Gbps — a 2x speedup over the 400 Gbps aggregate
  host bandwidth of an 8-port ToR.
* A predefined-phase timeslot is ``guard + tx(30 B message + 595 B piggyback)``
  which is 60 ns at 100 Gbps.
* A scheduled-phase timeslot carries one 1125 B data packet (10 B header +
  1115 B payload), 90 ns at 100 Gbps; the scheduled phase has 30 slots.
* With 128 ToRs x 8 ports both topologies need 16 predefined timeslots, so an
  epoch is 16*60 + 30*90 = 3660 ns and guardbands account for 4.37% of it.

Times are floats in nanoseconds throughout the package.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

KB = 1000
"""Bytes per kilobyte (decimal, as in the paper's flow-size notation)."""

DEFAULT_PIAS_THRESHOLDS = (1 * KB, 10 * KB)
"""PIAS band boundaries: the first 1 KB of a flow goes to the highest band,
the next 9 KB to the middle band, and the rest to the lowest band."""

MICE_THRESHOLD_BYTES = 10 * KB
"""Flows strictly smaller than this are mice flows (paper, section 4.1)."""

CORE_ENV_VAR = "REPRO_CORE"
"""Environment override for :attr:`SimConfig.core` (auto | scalar | vectorized)."""

CORES = ("auto", "scalar", "vectorized")
"""Accepted values of :attr:`SimConfig.core` and ``REPRO_CORE``."""


def transmit_ns(num_bytes: float, rate_gbps: float) -> float:
    """Serialization delay of ``num_bytes`` on a ``rate_gbps`` link, in ns."""
    if rate_gbps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_gbps}")
    return num_bytes * 8.0 / rate_gbps


@dataclass(frozen=True)
class EpochConfig:
    """Tunable knobs of one NegotiaToR epoch (section 3.3 / 4.1).

    The knob values are rate-independent byte budgets; actual slot durations
    are derived against a link rate by :class:`EpochTiming`.
    """

    guard_ns: float = 10.0
    scheduling_message_bytes: int = 30
    piggyback_payload_bytes: int = 595
    data_header_bytes: int = 10
    data_payload_bytes: int = 1115
    scheduled_slots: int = 30
    piggyback_enabled: bool = True
    request_threshold_packets: int = 3

    def __post_init__(self) -> None:
        if self.guard_ns < 0:
            raise ValueError("guard_ns must be non-negative")
        for name in (
            "scheduling_message_bytes",
            "piggyback_payload_bytes",
            "data_header_bytes",
            "data_payload_bytes",
            "scheduled_slots",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.request_threshold_packets < 0:
            raise ValueError("request_threshold_packets must be non-negative")

    @property
    def request_threshold_bytes(self) -> int:
        """Pending bytes above which a ToR sends a REQUEST (section 3.4.1).

        With piggybacking enabled, three piggybacked packets are guaranteed
        during the ~2-epoch scheduling delay, so requests are only worthwhile
        for larger backlogs.  Without piggybacking any pending byte requests.
        """
        if not self.piggyback_enabled:
            return 0
        return self.request_threshold_packets * self.piggyback_payload_bytes


@dataclass(frozen=True)
class EpochTiming:
    """Concrete slot/phase durations of one epoch on a given fabric.

    Derived from an :class:`EpochConfig`, the uplink rate, and the number of
    predefined-phase timeslots the topology needs for one all-to-all round.
    """

    predefined_slots: int
    predefined_slot_ns: float
    scheduled_slots: int
    scheduled_slot_ns: float
    guard_ns: float
    piggyback_payload_bytes: int
    data_payload_bytes: int
    piggyback_enabled: bool

    @classmethod
    def derive(
        cls,
        epoch: EpochConfig,
        uplink_gbps: float,
        predefined_slots: int,
    ) -> "EpochTiming":
        """Compute slot durations for ``epoch`` at ``uplink_gbps``."""
        if predefined_slots <= 0:
            raise ValueError("predefined_slots must be positive")
        payload = epoch.piggyback_payload_bytes if epoch.piggyback_enabled else 0
        predefined_bytes = epoch.scheduling_message_bytes + payload
        data_bytes = epoch.data_header_bytes + epoch.data_payload_bytes
        return cls(
            predefined_slots=predefined_slots,
            predefined_slot_ns=epoch.guard_ns
            + transmit_ns(predefined_bytes, uplink_gbps),
            scheduled_slots=epoch.scheduled_slots,
            scheduled_slot_ns=transmit_ns(data_bytes, uplink_gbps),
            guard_ns=epoch.guard_ns,
            piggyback_payload_bytes=payload,
            data_payload_bytes=epoch.data_payload_bytes,
            piggyback_enabled=epoch.piggyback_enabled,
        )

    @property
    def predefined_ns(self) -> float:
        """Duration of the predefined (control) phase."""
        return self.predefined_slots * self.predefined_slot_ns

    @property
    def scheduled_ns(self) -> float:
        """Duration of the scheduled (data) phase."""
        return self.scheduled_slots * self.scheduled_slot_ns

    @property
    def epoch_ns(self) -> float:
        """Total epoch duration."""
        return self.predefined_ns + self.scheduled_ns

    @property
    def guard_fraction(self) -> float:
        """Share of the epoch spent in reconfiguration guardbands."""
        return self.predefined_slots * self.guard_ns / self.epoch_ns

    def predefined_slot_start(self, slot: int) -> float:
        """Offset of predefined slot ``slot`` from epoch start."""
        return slot * self.predefined_slot_ns

    def predefined_slot_end(self, slot: int) -> float:
        """Offset at which predefined slot ``slot`` finishes transmitting."""
        return (slot + 1) * self.predefined_slot_ns

    def scheduled_slot_start(self, slot: int) -> float:
        """Offset of scheduled slot ``slot`` from epoch start."""
        return self.predefined_ns + slot * self.scheduled_slot_ns

    def scheduled_slot_end(self, slot: int) -> float:
        """Offset at which scheduled slot ``slot`` finishes transmitting."""
        return self.predefined_ns + (slot + 1) * self.scheduled_slot_ns


@dataclass(frozen=True)
class RotorConfig:
    """Timing and relay knobs of the RotorNet-style rotor baseline.

    The rotor fabric (sim/rotor.py) cycles a fixed round-robin schedule of
    Birkhoff–von-Neumann permutation matchings with no negotiation phase: a
    *slice* holds one matching for ``packets_per_slice`` data packets per
    port, then pays ``reconfiguration_delay_ns`` to rotate to the next
    matching.  ``vlb_relay`` enables the RotorLB-style two-hop Valiant
    relay: leftover slice capacity forwards lowest-band backlog for *other*
    destinations to the currently connected ToR, which delivers it when its
    own rotor reaches the final destination.

    The defaults give a long-slice rotor (16 packets per slice) at a 90%
    duty cycle against the paper's 1125 B data packets at 100 Gbps —
    qualitatively RotorNet's regime, scaled to this simulator's timebase.
    """

    packets_per_slice: int = 16
    reconfiguration_delay_ns: float = 160.0
    vlb_relay: bool = True

    def __post_init__(self) -> None:
        if self.packets_per_slice <= 0:
            raise ValueError("packets_per_slice must be positive")
        if self.reconfiguration_delay_ns < 0:
            raise ValueError("reconfiguration_delay_ns must be non-negative")

    def slice_ns(self, epoch: EpochConfig, uplink_gbps: float) -> float:
        """Duration of one slice: reconfiguration plus the packet budget."""
        packet_bytes = epoch.data_header_bytes + epoch.data_payload_bytes
        return self.reconfiguration_delay_ns + self.packets_per_slice * (
            transmit_ns(packet_bytes, uplink_gbps)
        )

    def duty_cycle(self, epoch: EpochConfig, uplink_gbps: float) -> float:
        """Fraction of a slice spent transmitting (not reconfiguring)."""
        slice_ns = self.slice_ns(epoch, uplink_gbps)
        return (slice_ns - self.reconfiguration_delay_ns) / slice_ns


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the demand-aware adaptive baseline (D3-class).

    The adaptive fabric (sim/adaptive.py) estimates the traffic matrix
    from observed per-(src, dst) arrivals with an EWMA (``ewma_alpha``
    folded in every ``recompute_slices`` slices) and points its circuits
    at the heavy entries via a greedy max-weight matching.  Unlike the
    rotor, a slice boundary is *not* a reconfiguration: only ports whose
    assignment actually changed at a recompute pay
    ``reconfiguration_delay_ns`` (during which the affected link carries
    nothing); unchanged circuits keep transmitting at full duty cycle.
    Each cycle, ``residual_ports`` of every ToR's port planes take a turn
    on the rotor-style round-robin rotation (paying the rotor's per-slice
    reconfiguration penalty), and the duty rotates across planes from
    cycle to cycle so the planes' rotations jointly connect every ordered
    pair — pairs too sparse to win a matching are never starved.

    The defaults match the rotor baseline's timebase — 16 data packets
    per slice and a 160 ns reconfiguration penalty — so the two systems
    differ only in *what* they schedule, not in link arithmetic.
    """

    packets_per_slice: int = 16
    reconfiguration_delay_ns: float = 160.0
    ewma_alpha: float = 0.25
    recompute_slices: int = 4
    residual_ports: int = 1

    def __post_init__(self) -> None:
        if self.packets_per_slice <= 0:
            raise ValueError("packets_per_slice must be positive")
        if self.reconfiguration_delay_ns < 0:
            raise ValueError("reconfiguration_delay_ns must be non-negative")
        if not (0.0 < self.ewma_alpha <= 1.0):
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.recompute_slices <= 0:
            raise ValueError("recompute_slices must be positive")
        if self.residual_ports < 0:
            raise ValueError("residual_ports must be non-negative")

    def slice_ns(self, epoch: EpochConfig, uplink_gbps: float) -> float:
        """Duration of one slice: the packet budget, with no blanket guard.

        Reconfiguration time is charged per affected port at recompute
        boundaries (the demand-aware engine's defining advantage over the
        rotor, whose every slice pays the delay), so the slice itself is
        pure transmission time.
        """
        packet_bytes = epoch.data_header_bytes + epoch.data_payload_bytes
        return self.packets_per_slice * transmit_ns(packet_bytes, uplink_gbps)


def epoch_config_without_piggyback(
    base: EpochConfig, uplink_gbps: float, predefined_slots: int
) -> EpochConfig:
    """Disable piggybacking while holding the epoch length constant.

    This is the Table 2 ablation protocol: predefined timeslots shrink to
    ``guard + tx(scheduling message)`` and the scheduled phase is enlarged so
    the epoch (and hence the reconfiguration-overhead ratio) stays the same.
    """
    reference = EpochTiming.derive(base, uplink_gbps, predefined_slots)
    stripped = dataclasses.replace(base, piggyback_enabled=False)
    shrunk = EpochTiming.derive(stripped, uplink_gbps, predefined_slots)
    budget_ns = reference.epoch_ns - shrunk.predefined_ns
    slots = max(1, round(budget_ns / shrunk.scheduled_slot_ns))
    return dataclasses.replace(stripped, scheduled_slots=slots)


def epoch_config_for_reconfiguration_delay(
    base: EpochConfig, guard_ns: float, uplink_gbps: float, predefined_slots: int
) -> EpochConfig:
    """Scale the scheduled phase so a larger guardband keeps its epoch share.

    This is the Fig 8 protocol: "the length of the scheduled phase is
    accordingly adjusted to control the reconfiguration overhead".  The
    returned config preserves the guard fraction of ``base`` (4.37% at the
    paper's defaults) for the new ``guard_ns``.
    """
    if guard_ns <= 0:
        raise ValueError("guard_ns must be positive")
    reference = EpochTiming.derive(base, uplink_gbps, predefined_slots)
    target_fraction = reference.guard_fraction
    regrown = dataclasses.replace(base, guard_ns=guard_ns)
    timing = EpochTiming.derive(regrown, uplink_gbps, predefined_slots)
    epoch_ns = predefined_slots * guard_ns / target_fraction
    budget_ns = epoch_ns - timing.predefined_ns
    slots = max(1, round(budget_ns / timing.scheduled_slot_ns))
    return dataclasses.replace(regrown, scheduled_slots=slots)


@dataclass(frozen=True)
class SimConfig:
    """Complete static configuration of a simulation run.

    ``num_tors`` x ``ports_per_tor`` defines the fabric; the paper evaluates
    128 x 8.  ``uplink_gbps`` is the per-port optical rate (100 Gbps with the
    default 2x speedup); ``host_aggregate_gbps`` is the per-ToR host-side
    bandwidth against which goodput is normalized and loads are defined.

    ``idle_fast_forward`` lets the engine's run loops jump over epochs in
    which provably nothing can happen (no queued data, drained scheduling
    pipeline, no imminent arrival or failure event); results are bit-exact
    either way (DESIGN.md section 7), so the flag exists for A/B testing
    and the determinism regression suite.

    ``core`` selects the NegotiaToR engine implementation: ``"scalar"``
    is the reference per-object core, ``"vectorized"`` the batched-numpy
    core (DESIGN.md section 15), and the default ``"auto"`` picks one per
    run from the fabric size and the workload's arrival density (see
    :func:`repro.sim.factory.resolve_core`).  Both produce bit-identical
    fixed-seed results; the scalar core is retained as the
    differential-testing oracle.  The oblivious, rotor and adaptive
    engines have a single path and ignore the field.  The ``REPRO_CORE``
    environment variable overrides this field at simulator construction
    (it reaches forked sweep workers, like ``REPRO_SCALE``).
    """

    num_tors: int = 128
    ports_per_tor: int = 8
    uplink_gbps: float = 100.0
    host_aggregate_gbps: float = 400.0
    propagation_ns: float = 2000.0
    epoch: EpochConfig = field(default_factory=EpochConfig)
    priority_queue_enabled: bool = True
    pias_thresholds: tuple[int, ...] = DEFAULT_PIAS_THRESHOLDS
    mice_threshold_bytes: int = MICE_THRESHOLD_BYTES
    receiver_buffer_bytes: int | None = None
    idle_fast_forward: bool = True
    seed: int = 0
    core: str = "auto"

    def __post_init__(self) -> None:
        if self.core not in CORES:
            raise ValueError(
                f"core must be one of {', '.join(map(repr, CORES))}, "
                f"got {self.core!r}"
            )
        if self.num_tors < 2:
            raise ValueError("need at least two ToRs")
        if self.ports_per_tor < 1:
            raise ValueError("need at least one port per ToR")
        if self.uplink_gbps <= 0 or self.host_aggregate_gbps <= 0:
            raise ValueError("link rates must be positive")
        if self.propagation_ns < 0:
            raise ValueError("propagation_ns must be non-negative")
        if list(self.pias_thresholds) != sorted(self.pias_thresholds):
            raise ValueError("pias_thresholds must be non-decreasing")
        if self.receiver_buffer_bytes is not None and self.receiver_buffer_bytes <= 0:
            raise ValueError("receiver_buffer_bytes must be positive")

    @property
    def speedup(self) -> float:
        """Ratio of aggregate uplink bandwidth to host aggregate bandwidth."""
        return self.ports_per_tor * self.uplink_gbps / self.host_aggregate_gbps

    @property
    def num_priority_bands(self) -> int:
        """Number of PIAS bands at source ToRs (1 when PQ is disabled)."""
        if not self.priority_queue_enabled:
            return 1
        return len(self.pias_thresholds) + 1

    @property
    def resolved_core(self) -> str:
        """The requested core, honoring the ``REPRO_CORE`` override.

        Environment beats config so one variable switches a whole sweep
        (including forked workers) without touching every spec; an unknown
        value raises here rather than silently running the wrong core.
        ``"auto"`` is returned as is: the engine factory settles it per
        run (:func:`repro.sim.factory.resolve_core`).
        """
        core = os.environ.get(CORE_ENV_VAR) or self.core
        if core not in CORES:
            raise ValueError(
                f"{CORE_ENV_VAR}={core!r} is not a valid core "
                f"(choose {', '.join(map(repr, CORES))})"
            )
        return core

    def without_speedup(self) -> "SimConfig":
        """Return a config with uplink rate equal to the downlink share.

        This is the Fig 11 protocol ("identical bandwidth to ToR uplinks and
        downlinks"): per-port rate becomes host_aggregate / ports, and slot
        durations stretch because the per-slot byte budgets are unchanged.
        """
        return dataclasses.replace(
            self, uplink_gbps=self.host_aggregate_gbps / self.ports_per_tor
        )
