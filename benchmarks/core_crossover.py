"""Scalar vs vectorized core: the crossover behind ``core="auto"``.

Runs every cell — engine x fabric size x topology x traffic — once on
each core and prints one markdown row per cell: the arrival density
``"auto"`` measures (:func:`repro.sim.factory.arrival_density`), the
wall seconds of construction plus stepping on each core, the speedup of
vectorized over scalar, and the core the auto rule picks.  The engines
are the NegotiaToR engine (scalar class vs the vectorized simulator)
and the oblivious, rotor and adaptive baselines (their internal
active-set and fast-forward switch).  DESIGN.md section 15 quotes these
tables; re-run them after changing any core or the auto thresholds::

    PYTHONPATH=src python benchmarks/core_crossover.py \
        [--sizes 64x8 128x8] [--engines negotiator oblivious rotor adaptive]

Each cell is a single timed run in this process, so on a shared machine
expect tens of percent of noise near a speedup of 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import random
import time

from repro.experiments.common import PAPER, make_topology, sim_config
from repro.sim.config import EpochTiming
from repro.sim.adaptive import AdaptiveSimulator
from repro.sim.factory import arrival_density, make_negotiator, resolve_core
from repro.sim.oblivious import ObliviousSimulator
from repro.sim.rotor import RotorSimulator
from repro.sweep import scenarios

ENGINES = {
    "negotiator": make_negotiator,
    "oblivious": ObliviousSimulator,
    "rotor": RotorSimulator,
    "adaptive": AdaptiveSimulator,
}

POISSON_LOADS = (0.005, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.9)
DURATION_NS = 1_000_000.0
SEED = 0


def _scale(size: str):
    num_tors, ports = (int(x) for x in size.split("x"))
    return dataclasses.replace(
        PAPER,
        name=size,
        num_tors=num_tors,
        ports_per_tor=ports,
        awgr_ports=num_tors // ports,
    )


def _cells(scale):
    for load in POISSON_LOADS:
        yield f"poisson {load}", "poisson", load, {}
    degree = min(50, scale.num_tors - 1)
    yield f"incast {degree}x100KB", "incast", 1.0, {
        "degree": degree, "flow_bytes": 100_000
    }
    yield "alltoall 5KB", "alltoall", 1.0, {"flow_bytes": 5_000}


def _flows(scale, scenario, load, params):
    entry = scenarios.get(scenario)
    resolved = entry.resolve_params(params)
    return entry.build_list(
        scale, load, DURATION_NS, random.Random(SEED), **resolved
    )


def _time(engine, scale, kind, core, scenario, load, params) -> float:
    config = sim_config(scale, core=core)
    topology = make_topology(scale, kind)
    flows = _flows(scale, scenario, load, params)
    started = time.perf_counter()
    sim = ENGINES[engine](config, topology, flows)
    sim.run(DURATION_NS)
    return time.perf_counter() - started


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", nargs="+", default=["64x8", "128x8"])
    parser.add_argument(
        "--engines", nargs="+", choices=sorted(ENGINES), default=["negotiator"]
    )
    args = parser.parse_args()
    print("| engine | fabric | traffic | pairs/epoch | scalar s "
          "| vectorized s | speedup | auto |")
    print("|---|---|---|---:|---:|---:|---:|---|")
    for engine, size in itertools.product(args.engines, args.sizes):
        scale = _scale(size)
        for kind in ("parallel", "thinclos"):
            topology = make_topology(scale, kind)
            config = sim_config(scale, core="auto")
            epoch_ns = EpochTiming.derive(
                config.epoch, config.uplink_gbps, topology.predefined_slots
            ).epoch_ns
            for label, scenario, load, params in _cells(scale):
                flows = _flows(scale, scenario, load, params)
                density, _ = arrival_density(flows, epoch_ns)
                auto, _ = resolve_core(config, topology, flows)
                cell = (scale, kind)
                scalar = _time(engine, *cell, "scalar", scenario, load, params)
                vector = _time(
                    engine, *cell, "vectorized", scenario, load, params
                )
                print(
                    f"| {engine} | {size} {kind} | {label} | {density:.1f} "
                    f"| {scalar:.3f} | {vector:.3f} "
                    f"| {scalar / vector:.2f}x | {auto} |",
                    flush=True,
                )


if __name__ == "__main__":
    main()
