"""Interface shared by NegotiaToR-compatible flat topologies.

A flat topology connects ``num_tors`` ToRs, each with ``ports_per_tor`` uplink
ports, through one layer of passive AWGRs.  The topology answers three kinds
of questions for the simulator and the matching algorithm:

* **Predefined phase** — which peer does (tor, port) transmit to in timeslot
  ``slot`` of epoch ``epoch`` (or, for a whole slot at once, every ToR's
  links), and conversely at which (slot, port) does an ordered pair
  (src, dst) meet?  Every ordered pair meets exactly once per
  epoch, and within a slot the connection pattern is a permutation, so the
  bufferless fabric never sees a collision.
* **Reachability** — which destinations can (tor, port) transmit to in the
  scheduled phase, and which sources can it receive from?  The parallel
  network is fully connected per port; thin-clos restricts each port to one
  W-ToR group, which is what forces per-port GRANT rings (Fig 3c).
* **Physical paths** — the AWGR/wavelength a transmission rides, for
  conflict validation and failure analysis.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .awgr import OpticalPath

LinkTable = list[tuple[tuple[int, int], ...]]
"""One predefined slot's links: ``table[tor]`` is that ToR's ``(port, peer)``
pairs in port order (see :meth:`FlatTopology.predefined_links`)."""


class FlatTopology(ABC):
    """Base class for one-layer AWGR fabrics."""

    def __init__(self, num_tors: int, ports_per_tor: int) -> None:
        if num_tors < 2:
            raise ValueError("topology needs at least two ToRs")
        if ports_per_tor < 1:
            raise ValueError("topology needs at least one port per ToR")
        self._num_tors = num_tors
        self._ports = ports_per_tor

    @property
    def num_tors(self) -> int:
        """Number of ToR switches."""
        return self._num_tors

    @property
    def ports_per_tor(self) -> int:
        """Uplink ports per ToR."""
        return self._ports

    @property
    @abstractmethod
    def name(self) -> str:
        """Short human-readable topology name."""

    @property
    @abstractmethod
    def predefined_slots(self) -> int:
        """Timeslots needed for one all-to-all round in the predefined phase."""

    @property
    @abstractmethod
    def num_awgrs(self) -> int:
        """Number of AWGR devices in the fabric."""

    @property
    @abstractmethod
    def awgr_ports(self) -> int:
        """Port count of each AWGR."""

    @abstractmethod
    def predefined_peer(
        self, tor: int, port: int, slot: int, epoch: int = 0
    ) -> int | None:
        """Peer that (tor, port) transmits to in predefined slot ``slot``.

        Returns None when the (slot, port) combination is idle (the rotation
        maps it onto the ToR itself).
        """

    @abstractmethod
    def predefined_assignment(
        self, src: int, dst: int, epoch: int = 0
    ) -> tuple[int, int]:
        """(slot, port) at which ``src`` transmits to ``dst`` in ``epoch``."""

    def assignment_for_epoch(self, epoch: int):
        """A fast ``(src, dst) -> (slot, port)`` lookup bound to one epoch.

        The engine calls :meth:`predefined_assignment` once per active pair
        per epoch, which makes it the hottest topology query by far.
        Subclasses override this to return a closure over a precomputed
        permutation table (one table per rotation cycle, built lazily and
        memoized), turning the per-pair cost into a single list index.  The
        returned callable may assume ``src != dst`` and in-range indices —
        validation stays in :meth:`predefined_assignment`.
        """
        return lambda src, dst: self.predefined_assignment(src, dst, epoch)

    def predefined_links(self, slot: int, epoch: int = 0) -> LinkTable:
        """Every ToR's links in predefined slot ``slot`` of ``epoch``.

        ``links[tor]`` holds the ``(port, peer)`` pairs :meth:`predefined_peer`
        gives for ``tor`` in ascending port order, idle ports dropped — the
        inverse of :meth:`assignment_for_epoch`.  The rotor-style engines
        read one table per step instead of calling :meth:`predefined_peer`
        per (ToR, port).  This default derives the table uncached from
        :meth:`predefined_peer`, so it follows any override of it; a
        subclass whose schedule does not rotate (thin-clos) may memoize it
        per slot, assuming an in-range ``slot`` — validation stays in
        :meth:`predefined_peer`.
        """
        ports = range(self._ports)
        return [
            tuple(
                (port, peer)
                for port in ports
                if (peer := self.predefined_peer(tor, port, slot, epoch))
                is not None
            )
            for tor in range(self._num_tors)
        ]

    @abstractmethod
    def data_port(self, src: int, dst: int) -> int | None:
        """Port ``src`` must use to reach ``dst`` in the scheduled phase.

        Returns the fixed port index for connection-limited topologies
        (thin-clos) and None when any port works (parallel network).
        """

    @abstractmethod
    def reachable_dsts(self, tor: int, port: int) -> tuple[int, ...]:
        """Destinations (tor, port) can transmit to in the scheduled phase."""

    @abstractmethod
    def reachable_srcs(self, tor: int, port: int) -> tuple[int, ...]:
        """Sources that can reach (tor, port) in the scheduled phase."""

    @abstractmethod
    def optical_path(self, src: int, dst: int, port: int) -> OpticalPath:
        """Physical lightpath of a ``src`` -> ``dst`` transmission on ``port``."""

    def check_pair(self, src: int, dst: int) -> None:
        """Validate an ordered ToR pair."""
        for tor in (src, dst):
            if not 0 <= tor < self._num_tors:
                raise ValueError(f"ToR {tor} out of range")
        if src == dst:
            raise ValueError("source and destination must differ")

    def check_port(self, port: int) -> None:
        """Validate a port index."""
        if not 0 <= port < self._ports:
            raise ValueError(f"port {port} out of range")

    def all_pairs(self):
        """Iterate over all ordered (src, dst) pairs."""
        for src in range(self._num_tors):
            for dst in range(self._num_tors):
                if src != dst:
                    yield src, dst
