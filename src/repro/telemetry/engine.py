"""Engine-side tracing: phase spans, counters, and cadenced gauges.

One :class:`EngineTracer` is attached per simulator run (the ``tracer=``
constructor parameter on the five engines).  The engines call three
cheap methods from their stepping loops:

* :meth:`EngineTracer.add_span` — accumulate wall-time into a named
  phase (``matching``, ``drain``, ``relay``, ...).
* :meth:`EngineTracer.count` — bump a named counter (requests, grants,
  accepts, matches, ...).
* :meth:`EngineTracer.gauge_due` / :meth:`EngineTracer.sample` — emit a
  flush of the accumulated window plus point-in-time gauges (queue
  depth, active pairs) once per configured *sim-time* cadence, so event
  volume scales with simulated time, not with epochs stepped.

The baseline engines' per-link service calls are timed by
:meth:`EngineTracer.timed` instead: with a tracer attached, each engine
replaces those calls on its instance at construction, so its one
service loop runs unchanged whether traced or not.

Span and counter events carry the *delta since the previous flush*; the
final :meth:`finish` emits a ``run-end`` event with the cumulative
totals, so an analyzer can either sum the windows or read the totals and
get the same numbers.  When no tracer is attached the engines skip all
of this behind a single ``is not None`` check — the zero-overhead-
when-off contract (DESIGN.md §14).
"""

from __future__ import annotations

from time import perf_counter

from . import events as ev

#: Gauge sampling cadence when none is configured: 50 µs of simulated
#: time, a handful of windows per tiny-scale CI spec.
DEFAULT_CADENCE_NS = 50_000


class EngineTracer:
    """Accumulates per-window phase/counter/gauge data for one run."""

    __slots__ = (
        "sink",
        "engine",
        "spec_hash",
        "cadence_ns",
        "_next_sample_ns",
        "_window_spans",
        "_window_counts",
        "_total_spans",
        "_total_counts",
        "_last_gauges",
    )

    def __init__(
        self,
        sink,
        engine: str,
        *,
        spec_hash: str | None = None,
        cadence_ns: int = DEFAULT_CADENCE_NS,
    ) -> None:
        if cadence_ns <= 0:
            raise ValueError("cadence_ns must be positive")
        self.sink = sink
        self.engine = engine
        self.spec_hash = spec_hash
        self.cadence_ns = cadence_ns
        self._next_sample_ns = cadence_ns
        self._window_spans: dict[str, float] = {}
        self._window_counts: dict[str, int] = {}
        self._total_spans: dict[str, float] = {}
        self._total_counts: dict[str, int] = {}
        self._last_gauges: dict[str, float] = {}

    # -- hot-path hooks ----------------------------------------------------

    def add_span(self, phase: str, wall_s: float) -> None:
        """Accumulate ``wall_s`` seconds into ``phase``."""
        self._window_spans[phase] = self._window_spans.get(phase, 0.0) + wall_s

    def count(self, name: str, delta: int = 1) -> None:
        """Bump counter ``name`` by ``delta``."""
        if delta:
            self._window_counts[name] = (
                self._window_counts.get(name, 0) + delta
            )

    def gauge_due(self, sim_ns: int) -> bool:
        """Whether the next cadence boundary has been reached."""
        return sim_ns >= self._next_sample_ns

    def timed(self, call, phase: str, counter: str | None = None):
        """``call`` with each invocation's wall time added to ``phase``.

        With ``counter``, the call's result is counted too: the packets
        or slots it served, or one for a served-cell flag.  Arguments
        and the result pass through unchanged.  The wrapper runs once
        per link per step, so it updates the window dicts in place
        rather than through :meth:`add_span` and :meth:`count` (flushes
        clear those dicts, never replace them).
        """
        spans = self._window_spans
        counts = self._window_counts

        def timed_call(*args):
            t0 = perf_counter()
            result = call(*args)
            spans[phase] = spans.get(phase, 0.0) + (perf_counter() - t0)
            if result and counter is not None:
                counts[counter] = counts.get(counter, 0) + result
            return result

        return timed_call

    # -- flushing ----------------------------------------------------------

    def sample(self, sim_ns: int, **gauges) -> None:
        """Flush the window (span/counter deltas, gauges) in one sink call."""
        events = []
        for phase, wall_s in self._window_spans.items():
            self._total_spans[phase] = (
                self._total_spans.get(phase, 0.0) + wall_s
            )
            events.append(self._event(
                ev.SPAN, phase=phase, wall_s=wall_s, sim_ns=sim_ns,
            ))
        self._window_spans.clear()
        for name, delta in self._window_counts.items():
            self._total_counts[name] = self._total_counts.get(name, 0) + delta
            events.append(self._event(
                ev.COUNTER, name=name, delta=delta, sim_ns=sim_ns,
            ))
        self._window_counts.clear()
        for name, value in gauges.items():
            self._last_gauges[name] = value
            events.append(self._event(
                ev.GAUGE, name=name, value=value, sim_ns=sim_ns,
            ))
        if events:
            self.sink.emit_many(events)
        if sim_ns >= self._next_sample_ns:
            periods = (sim_ns - self._next_sample_ns) // self.cadence_ns + 1
            self._next_sample_ns += periods * self.cadence_ns

    def finish(self, sim_ns: int, **gauges) -> None:
        """Final flush plus the ``run-end`` event with cumulative totals."""
        total_wall = sum(self._total_spans.values()) + sum(
            self._window_spans.values()
        )
        self.sample(sim_ns, **gauges)
        self.sink.emit(self._event(
            ev.RUN_END,
            sim_ns=sim_ns,
            wall_s=total_wall,
            spans=dict(self._total_spans),
            counters=dict(self._total_counts),
            gauges=dict(self._last_gauges),
        ))

    def _event(self, kind: str, **fields) -> dict:
        return ev.make_event(
            kind, spec=self.spec_hash, engine=self.engine, **fields
        )
