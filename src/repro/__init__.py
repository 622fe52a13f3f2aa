"""repro - a reproduction of NegotiaToR (SIGCOMM 2024).

NegotiaToR is an on-demand reconfigurable optical datacenter network: ToR
switches interconnected by passive AWGRs negotiate conflict-free one-hop
connections every epoch through a distributed REQUEST/GRANT/ACCEPT matching,
with a piggybacking mechanism that lets mice flows bypass the scheduling
delay entirely.

Quick start::

    import random
    from repro import (
        SimConfig, ParallelNetwork, NegotiaToRSimulator, hadoop,
        poisson_workload,
    )

    config = SimConfig(num_tors=32, ports_per_tor=4)
    topology = ParallelNetwork(config.num_tors, config.ports_per_tor)
    rng = random.Random(1)
    flows = poisson_workload(
        hadoop(), load=0.5, num_tors=config.num_tors,
        host_aggregate_gbps=config.host_aggregate_gbps,
        duration_ns=2_000_000, rng=rng,
    )
    sim = NegotiaToRSimulator(config, topology, flows)
    sim.run(duration_ns=2_000_000)
    print(sim.summary())
"""

from .core.efficiency import asymptotic_match_ratio, expected_match_ratio
from .core.matching import Match, MatchingResult, NegotiaToRMatcher
from .core.pipeline import PipelinedScheduler
from .core.relay import RelayPolicy, SelectiveRelaySimulator
from .core.rings import RoundRobinRing
from .core.variants import make_scheduler
from .sim.adaptive import AdaptiveSimulator
from .sim.config import (
    KB,
    MICE_THRESHOLD_BYTES,
    AdaptiveConfig,
    EpochConfig,
    EpochTiming,
    SimConfig,
    epoch_config_for_reconfiguration_delay,
    epoch_config_without_piggyback,
)
from .sim.failures import (
    Direction,
    FailureEvent,
    FailurePlan,
    LinkFailureModel,
    LinkRef,
    random_failure_plan,
)
from .sim.flows import Flow, FlowTracker
from .sim.metrics import BandwidthRecorder, MatchRatioRecorder, RunSummary
from .sim.buffers import ReceiverBuffer
from .sim.network import NegotiaToRSimulator
from .sim.oblivious import ObliviousSimulator
from .sim.queues import PiasDestQueue
from .topology.awgr import AWGR, OpticalPath
from .topology.base import FlatTopology
from .topology.parallel import ParallelNetwork
from .topology.thinclos import ThinClos
from .topology.validation import TopologyContractError, validate_topology
from .workloads.distributions import EmpiricalCDF, FixedSize
from .workloads.generators import (
    merge_workloads,
    network_arrival_rate_per_ns,
    poisson_workload,
    single_pair_stream,
)
from .workloads.incast import (
    all_to_all_workload,
    incast_finish_time_ns,
    incast_workload,
    mixed_incast_workload,
)
from .workloads.streams import (
    heavy_poisson_stream,
    merge_workload_streams,
    poisson_flow_stream,
)
from .workloads.traces import google, hadoop, websearch

__version__ = "1.0.0"

__all__ = [
    "AWGR",
    "AdaptiveConfig",
    "AdaptiveSimulator",
    "BandwidthRecorder",
    "Direction",
    "EmpiricalCDF",
    "EpochConfig",
    "EpochTiming",
    "FailureEvent",
    "FailurePlan",
    "FixedSize",
    "FlatTopology",
    "Flow",
    "FlowTracker",
    "KB",
    "LinkFailureModel",
    "LinkRef",
    "Match",
    "MatchingResult",
    "MatchRatioRecorder",
    "MICE_THRESHOLD_BYTES",
    "NegotiaToRMatcher",
    "NegotiaToRSimulator",
    "ObliviousSimulator",
    "OpticalPath",
    "ParallelNetwork",
    "PiasDestQueue",
    "PipelinedScheduler",
    "ReceiverBuffer",
    "RelayPolicy",
    "RoundRobinRing",
    "RunSummary",
    "SelectiveRelaySimulator",
    "SimConfig",
    "ThinClos",
    "TopologyContractError",
    "all_to_all_workload",
    "asymptotic_match_ratio",
    "epoch_config_for_reconfiguration_delay",
    "epoch_config_without_piggyback",
    "expected_match_ratio",
    "google",
    "hadoop",
    "incast_finish_time_ns",
    "incast_workload",
    "heavy_poisson_stream",
    "make_scheduler",
    "merge_workload_streams",
    "merge_workloads",
    "mixed_incast_workload",
    "network_arrival_rate_per_ns",
    "poisson_flow_stream",
    "poisson_workload",
    "random_failure_plan",
    "single_pair_stream",
    "validate_topology",
    "websearch",
]
