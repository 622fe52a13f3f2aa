"""Simulation engines, queues, failures, and measurement instruments."""

from .adaptive import AdaptiveSimulator
from .config import (
    KB,
    MICE_THRESHOLD_BYTES,
    AdaptiveConfig,
    EpochConfig,
    EpochTiming,
    RotorConfig,
    SimConfig,
    epoch_config_for_reconfiguration_delay,
    epoch_config_without_piggyback,
    transmit_ns,
)
from .failures import (
    Direction,
    FailureEvent,
    FailurePlan,
    LinkFailureModel,
    LinkRef,
    random_failure_plan,
)
from .flows import DEFAULT_RESERVOIR_SIZE, Flow, FlowTracker, ReservoirSampler
from .metrics import BandwidthRecorder, MatchRatioRecorder, RunSummary
from .buffers import ReceiverBuffer
from .network import NegotiaToRSimulator
from .oblivious import ObliviousSimulator
from .queues import PiasDestQueue, Segment
from .rotor import RotorSimulator
from .source import MaterializedFlowSource, StreamingFlowSource

__all__ = [
    "AdaptiveConfig",
    "AdaptiveSimulator",
    "BandwidthRecorder",
    "DEFAULT_RESERVOIR_SIZE",
    "Direction",
    "EpochConfig",
    "EpochTiming",
    "FailureEvent",
    "FailurePlan",
    "Flow",
    "FlowTracker",
    "KB",
    "LinkFailureModel",
    "LinkRef",
    "MICE_THRESHOLD_BYTES",
    "MatchRatioRecorder",
    "MaterializedFlowSource",
    "NegotiaToRSimulator",
    "ReceiverBuffer",
    "ObliviousSimulator",
    "PiasDestQueue",
    "ReservoirSampler",
    "RotorConfig",
    "RotorSimulator",
    "RunSummary",
    "Segment",
    "SimConfig",
    "StreamingFlowSource",
    "epoch_config_for_reconfiguration_delay",
    "epoch_config_without_piggyback",
    "random_failure_plan",
    "transmit_ns",
]
