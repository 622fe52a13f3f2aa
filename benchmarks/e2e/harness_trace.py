"""Layer spans recorded from outside the program, and the per-layer metrics.

:func:`install` wraps public callables of each layer — the sweep runner,
scenario builders, topology and engine factories, the engine classes'
``__init__``/``run``/``run_until_complete``/``summary``, the result store,
the experiments' entry point and ``RunSpec.content_hash`` — so that every
call records a span (name, start, end, parent span, trace id) into a
:class:`SpanRecorder`.  Nothing under ``src/`` changes; the hooks are
removed again by the function :func:`install` returns.

Spans stay in memory.  A layer's self time is its spans' durations minus
the time their child spans cover (:func:`self_times`); all spans inside
one ``execute_spec`` call carry that spec's content hash as trace id.

A hook target that no longer exists (a later refactor renamed or removed
it) is reported, not fatal: its layer's metrics come out as ``None``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import warnings
from collections import defaultdict
from pathlib import Path

SYSTEMS = ("negotiator", "relay", "oblivious", "rotor", "adaptive")

PHASES = {
    "negotiator": ("matching", "piggyback", "relay", "drain"),
    "relay": ("matching", "piggyback", "relay", "drain"),
    "oblivious": ("inject", "relay", "drain"),
    "rotor": ("inject", "relay", "drain", "offload"),
    "adaptive": ("inject", "matching", "drain"),
}
"""Engine tracer phases per system (``repro.telemetry.engine``)."""

NEGOTIATOR_COUNTERS = ("requests", "grants", "accepts", "matches")

BACKENDS = ("jsonl", "sqlite")

ENGINES = (
    ("repro.sim.network", "NegotiaToRSimulator", "negotiator"),
    ("repro.sim.vectorized", "VectorizedNegotiaToRSimulator", "negotiator"),
    ("repro.core.relay", "SelectiveRelaySimulator", "relay"),
    ("repro.sim.oblivious", "ObliviousSimulator", "oblivious"),
    ("repro.sim.rotor", "RotorSimulator", "rotor"),
    ("repro.sim.adaptive", "AdaptiveSimulator", "adaptive"),
)
"""(module, class, system) of every engine whose methods are hooked."""

ENGINE_METHODS = {
    "__init__": "sim.construct",
    "run": "sim.step",
    "run_until_complete": "sim.step",
    "summary": "sim.summary",
}

FUNCTIONS = (
    ("repro.golden", "compute_result", "experiments"),
    ("repro.sweep.runner", "execute_spec", "runner.execute"),
    ("repro.sweep.scenarios", "build_workload", "workloads.build"),
    ("repro.sweep.scenarios", "build_workload_iter", "workloads.build"),
    ("repro.experiments.common", "make_topology", "topology.build"),
    ("repro.experiments.common", "make_negotiator", "sim.construct/negotiator"),
)
"""(module, function, span name); rebound in every ``repro`` module that
imported the function by name, so aliased call sites are covered too."""

METHODS = (
    ("repro.sweep.runner", "SweepRunner", "run", "runner.run"),
    ("repro.sweep.store", "ResultStore", "put", "store.put"),
    ("repro.sweep.store", "ResultStore", "load", "store.load"),
)


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent, trace]`` lists."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str, trace: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if trace is None and parent is not None:
            trace = self.spans[parent][4]
        self.spans.append([name, self.clock(), None, parent, trace])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new segment."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent, _trace in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = []
    for index, (_name, start, end, _parent, _trace) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def by_name(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Summed self time and span count per span name."""
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
        counts[span[0]] += 1
    return totals, counts


def write_spans(path: Path, segments: dict[str, list[list]]) -> None:
    """Write every recorded span once, as JSONL, at the end of a run."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for segment, spans in segments.items():
            for index, (name, start, end, parent, trace) in enumerate(spans):
                handle.write(json.dumps({
                    "segment": segment, "id": index, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "trace": trace,
                }) + "\n")


# ---------------------------------------------------------------------------
# hooks
# ---------------------------------------------------------------------------


def _span_call(recorder: SpanRecorder, name, fn, trace=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(
            name(args) if callable(name) else name,
            trace(args) if trace is not None else None,
        )
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def _engine_progress(sim) -> tuple[int, int] | None:
    """(epoch-like steps elapsed, steps fast-forwarded) of one engine."""
    for total, skipped in (
        ("epoch", "fast_forwarded_epochs"),
        ("slices", "fast_forwarded_slices"),
    ):
        if hasattr(sim, total) and hasattr(sim, skipped):
            return getattr(sim, total), getattr(sim, skipped)
    if hasattr(sim, "slot_ns") and hasattr(sim, "fast_forwarded_slots"):
        return round(sim.now_ns / sim.slot_ns), sim.fast_forwarded_slots
    return None


def install(recorder: SpanRecorder):
    """Hook every layer; returns (uninstall, layers whose target is missing)."""
    undo: list = []
    missing: set[str] = set()

    def warn(target: str, layer: str) -> None:
        missing.add(layer)
        warnings.warn(
            f"hook target {target} not found; {layer} metrics reported as null",
            RuntimeWarning,
            stacklevel=3,
        )

    def resolve(module: str, attr: str):
        try:
            return getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            return None

    def set_class_attr(cls, attr, value) -> None:
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    systems: dict[type, str] = {}
    for module, cls_name, system in ENGINES:
        cls = resolve(module, cls_name)
        if cls is None:
            for layer in set(ENGINE_METHODS.values()):
                warn(f"{module}.{cls_name}", layer)
            continue
        systems[cls] = system

    def system_of(sim) -> str:
        for klass in type(sim).__mro__:
            if klass in systems:
                return systems[klass]
        return type(sim).__name__

    def engine_hook(fn, layer: str):
        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            system = system_of(sim)
            before = _engine_progress(sim) if layer == "sim.step" else None
            index = recorder.open(f"{layer}/{system}")
            try:
                return fn(sim, *args, **kwargs)
            finally:
                recorder.close(index)
                after = _engine_progress(sim) if before is not None else None
                if after is not None:
                    steps, skipped = (a - b for a, b in zip(after, before))
                    recorder.counters[f"stepped/{system}"] += steps - skipped
                    recorder.counters[f"skipped/{system}"] += skipped
                if layer == "sim.summary":
                    tracker = getattr(sim, "tracker", None)
                    recorder.counters["peak_live_flows"] = max(
                        recorder.counters["peak_live_flows"],
                        getattr(tracker, "peak_live_flows", 0),
                    )

        return wrapper

    for cls in systems:
        for method, layer in ENGINE_METHODS.items():
            if method in cls.__dict__:
                set_class_attr(cls, method, engine_hook(cls.__dict__[method], layer))
            elif not any(method in k.__dict__ for k in cls.__mro__[1:] if k in systems):
                warn(f"{cls.__name__}.{method}", layer)

    spec_cls = resolve("repro.sweep.spec", "RunSpec")
    hash_prop = spec_cls.__dict__.get("content_hash") if spec_cls else None
    original_hash = hash_prop.fget if isinstance(hash_prop, property) else None
    if original_hash is None:
        warn("repro.sweep.spec.RunSpec.content_hash", "spec.hash")
    else:

        def content_hash(spec):
            index = recorder.open("spec.hash")
            try:
                value = original_hash(spec)
            finally:
                recorder.close(index)
            if recorder.spans[index][4] is None:
                recorder.spans[index][4] = value
            return value

        set_class_attr(spec_cls, "content_hash", property(content_hash))

    for module, name, layer in FUNCTIONS:
        original = resolve(module, name)
        if original is None:
            warn(f"{module}.{name}", layer.split("/")[0])
            continue
        trace = None
        if layer == "runner.execute" and original_hash is not None:
            # The trace id is taken with the unhooked getter so that it
            # never counts as a hash call of the program's own.
            trace = lambda args: original_hash(args[0])  # noqa: E731
        wrapper = _span_call(recorder, layer, original, trace)
        for mod in [m for n, m in list(sys.modules.items()) if n.startswith("repro")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    for module, cls_name, method, layer in METHODS:
        cls = resolve(module, cls_name)
        if cls is None or method not in cls.__dict__:
            warn(f"{module}.{cls_name}.{method}", layer)
            continue
        name = layer
        if layer.startswith("store."):
            name = lambda args, layer=layer: f"{layer}/{args[0].backend_kind}"  # noqa: E731
        set_class_attr(cls, method, _span_call(recorder, name, cls.__dict__[method]))

    collectors = resolve("repro.sweep.runner", "COLLECTORS")
    if collectors is None:
        warn("repro.sweep.runner.COLLECTORS", "runner.collect")
    else:
        for key, fn in list(collectors.items()):
            undo.append((collectors, key, fn))
            collectors[key] = _span_call(recorder, "runner.collect", fn)

    def uninstall() -> None:
        for target, attr, value in reversed(undo):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)

    return uninstall, missing


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

NULL_WHEN_MISSING = (
    ("spec.", "spec.hash"),
    ("workloads.build_s", "workloads.build"),
    ("topology.", "topology.build"),
    ("sim.construct_s.", "sim.construct"),
    ("sim.step_s.", "sim.step"),
    ("sim.stepped_epochs.", "sim.step"),
    ("sim.skipped_epochs.", "sim.step"),
    ("sim.step_us_per_epoch.", "sim.step"),
    ("sim.summary_s.", "sim.summary"),
    ("sim.peak_live_flows", "sim.summary"),
    ("runner.self_s", "runner.execute"),
    ("runner.run_self_s", "runner.run"),
    ("runner.collect_s", "runner.collect"),
    ("experiments.", "experiments"),
    ("store.put_ms.", "store.put"),
    ("store.load_s.", "store.load"),
)
"""Metric-name prefix -> the hooked layer it is measured at."""


def layer_metrics(
    recorder: SpanRecorder,
    first: list[list],
    resume: list[list],
    *,
    traced_wall_s: float,
    untraced_serial_wall_s: float,
    requested: int,
    resumed: int,
    telemetry: dict,
    missing: set[str],
) -> dict[str, float | None]:
    """The traced pass's per-layer metrics (see BENCHMARK.json per_layer).

    ``first`` and ``resume`` are the span segments of the traced first
    pass and of its warm-store resume; ``telemetry`` is the
    ``repro.telemetry.trace.analyze`` result of the engine tracer events.
    """
    own, count = by_name(first)
    resume_own, resume_count = by_name(resume)
    m: dict[str, float | None] = {
        "spec.hash_calls_per_spec": count["spec.hash"] / requested,
        "spec.hash_calls_per_cached_spec": (
            resume_count["spec.hash"] / resumed if resumed else 0.0
        ),
        "spec.hash_s": own["spec.hash"],
        "workloads.build_s": own["workloads.build"],
        "topology.build_s": own["topology.build"],
    }
    phases = telemetry.get("phase_time_shares", {})
    counters = telemetry.get("counters", {})
    for system in SYSTEMS:
        step_s = own[f"sim.step/{system}"]
        stepped = recorder.counters[f"stepped/{system}"]
        m[f"sim.construct_s.{system}"] = own[f"sim.construct/{system}"]
        m[f"sim.step_s.{system}"] = step_s
        m[f"sim.stepped_epochs.{system}"] = stepped
        m[f"sim.skipped_epochs.{system}"] = recorder.counters[f"skipped/{system}"]
        m[f"sim.step_us_per_epoch.{system}"] = (
            step_s / stepped * 1e6 if stepped else 0.0
        )
        m[f"sim.summary_s.{system}"] = own[f"sim.summary/{system}"]
        for phase in PHASES[system]:
            m[f"sim.phase_s.{system}.{phase}"] = (
                phases.get(system, {}).get(phase, {}).get("wall_s", 0.0)
            )
    negotiator = counters.get("negotiator", {})
    for name in NEGOTIATOR_COUNTERS:
        m[f"sim.{name}.negotiator"] = negotiator.get(name, 0)
    grants = negotiator.get("grants", 0)
    m["sim.accept_ratio.negotiator"] = (
        negotiator.get("accepts", 0) / grants if grants else 0.0
    )
    m["sim.peak_live_flows"] = recorder.counters["peak_live_flows"]
    m["runner.self_s"] = own["runner.execute"]
    m["runner.run_self_s"] = own["runner.run"]
    m["runner.collect_s"] = own["runner.collect"]
    m["experiments.self_s"] = own["experiments"]
    for backend in BACKENDS:
        puts = count[f"store.put/{backend}"]
        m[f"store.put_ms.{backend}"] = (
            own[f"store.put/{backend}"] / puts * 1e3 if puts else 0.0
        )
        m[f"store.load_s.{backend}"] = resume_own[f"store.load/{backend}"]
    m["traced_wall_s"] = traced_wall_s
    unattributed = traced_wall_s - sum(own.values())
    m["unattributed_s"] = unattributed
    m["unattributed_frac"] = unattributed / traced_wall_s
    m["telemetry.overhead_frac"] = traced_wall_s / untraced_serial_wall_s - 1.0
    for name in m:
        for prefix, layer in NULL_WHEN_MISSING:
            if name.startswith(prefix) and layer in missing:
                m[name] = None
    return m
