"""Flow sources: how arrivals enter a simulator.

Every engine consumes arrivals through the kernel
(:class:`~repro.sim.kernel.StepKernel`) from one tiny interface — an
attribute ``next_arrival_ns`` (``None`` when exhausted, kept plain for the
per-step hot-path check) and a ``pop()`` method — with two
implementations:

* :class:`MaterializedFlowSource` holds the whole workload sorted in memory,
  exactly like the engines always did.  It is the default and the mode every
  golden baseline runs in.
* :class:`StreamingFlowSource` pulls flows on demand from an arrival-ordered
  iterator with a one-flow lookahead, so a million-flow workload never
  materializes.  It validates that arrivals never go backwards — a streaming
  engine cannot sort for you.

DESIGN.md section 11 describes the streaming data path end to end.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .flows import Flow


class MaterializedFlowSource:
    """The classic mode: all flows sorted up front, served by index.

    ``popped`` counts the flows an engine has pulled (injected into the
    fabric) so far — the same quantity a :class:`StreamingFlowSource`
    tracks, which is what lets both execution modes report an identical
    ``num_flows`` in run summaries.
    """

    __slots__ = ("_flows", "_next", "next_arrival_ns")

    def __init__(self, flows: Iterable[Flow]) -> None:
        self._flows = sorted(flows, key=lambda f: f.arrival_ns)
        self._next = 0
        self.next_arrival_ns = (
            self._flows[0].arrival_ns if self._flows else None
        )

    @property
    def flows(self) -> list[Flow]:
        """The full sorted workload (for up-front registration)."""
        return self._flows

    @property
    def popped(self) -> int:
        """Flows pulled from this source (injected into the fabric) so far."""
        return self._next

    def pop(self) -> Flow:
        """The next flow in arrival order (raises when exhausted)."""
        try:
            flow = self._flows[self._next]
        except IndexError:
            raise ValueError("flow source is exhausted") from None
        self._next += 1
        if self._next < len(self._flows):
            self.next_arrival_ns = self._flows[self._next].arrival_ns
        else:
            self.next_arrival_ns = None
        return flow


class StreamingFlowSource:
    """Pulls flows lazily from an arrival-ordered iterator.

    Only the one-flow lookahead is ever held, so memory is O(1) in the
    trace length.  Out-of-order arrivals raise immediately with the
    offending flow named — streaming replay requires pre-sorted input
    (generators yield in arrival order by construction; for files, see
    ``repro.workloads.trace_io.stream``).
    """

    __slots__ = ("_iterator", "_head", "next_arrival_ns", "popped")

    def __init__(self, flows: Iterable[Flow]) -> None:
        self._iterator: Iterator[Flow] = iter(flows)
        self._head = next(self._iterator, None)
        self.next_arrival_ns = (
            self._head.arrival_ns if self._head is not None else None
        )
        self.popped = 0

    def pop(self) -> Flow:
        """The next flow in arrival order (raises when exhausted)."""
        flow = self._head
        if flow is None:
            raise ValueError("flow source is exhausted")
        head = next(self._iterator, None)
        if head is not None and head.arrival_ns < flow.arrival_ns:
            raise ValueError(
                f"flow {head.fid} arrives at {head.arrival_ns} ns, before "
                f"the previous flow {flow.fid} at {flow.arrival_ns} ns; "
                "streaming sources must yield non-decreasing arrival times"
            )
        self._head = head
        self.next_arrival_ns = head.arrival_ns if head is not None else None
        self.popped += 1
        return flow
