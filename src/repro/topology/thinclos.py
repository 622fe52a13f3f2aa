"""The thin-clos topology (Fig 1b): many low-port-count AWGRs.

With W-port AWGRs (W < N), a single port cannot reach every ToR.  The classic
thin-clos construction (Proietti/Yin et al., refs [40, 52] in the paper)
divides the N ToRs into G = N/W groups of W ToRs.  TX port ``k`` of a ToR in
group ``g`` feeds the W-port AWGR ``(g, k)`` whose outputs fan out to the W
ToRs of group ``(g + k) mod G`` — so port ``k`` reaches exactly one group, and
all S ports together reach the whole network.  Reaching everyone requires
S * W >= N; we implement the balanced case N = S * W used throughout the
paper (128 ToRs = 8 ports x 16-port AWGRs; the Fig 3 example is 8 = 4 x 2).

Consequences the rest of the system inherits:

* An ordered pair (src, dst) is connected by a *single* port-to-port path:
  TX port ``(group(dst) - group(src)) mod G`` at the source, and the
  same-index RX port at the destination.
* A destination's RX port ``k`` only hears the W sources of group
  ``(group(dst) - k) mod G`` — hence per-port GRANT rings (Fig 3c) and the
  higher matching efficiency at n = W in the paper's analysis (section 3.2.2).

Predefined phase
----------------
W timeslots: in slot ``t``, TX port ``k`` of the ToR with in-group index ``v``
targets the group member with index ``(v + t) mod W``.  Per (slot, port) this
is a permutation, and a pair meets exactly once per epoch at slot
``(index(dst) - index(src)) mod W`` on its fixed port.
"""

from __future__ import annotations

from .awgr import AWGR, OpticalPath
from .base import FlatTopology, LinkTable


class ThinClos(FlatTopology):
    """Balanced thin-clos fabric with ``num_tors = ports_per_tor * awgr_ports``."""

    def __init__(self, num_tors: int, ports_per_tor: int, awgr_ports: int) -> None:
        super().__init__(num_tors, ports_per_tor)
        if awgr_ports < 2:
            raise ValueError("thin-clos AWGRs need at least two ports")
        if num_tors != ports_per_tor * awgr_ports:
            raise ValueError(
                "balanced thin-clos requires num_tors == ports_per_tor * "
                f"awgr_ports, got {num_tors} != {ports_per_tor} * {awgr_ports}"
            )
        self._w = awgr_ports
        self._groups = num_tors // awgr_ports
        self._awgr = AWGR(awgr_ports)
        # Flat [src * N + dst] -> (slot, port) table; the thin-clos schedule
        # does not rotate, so one table serves every epoch.  Built lazily.
        self._assignment_table: list[tuple[int, int] | None] | None = None
        # slot -> predefined_links table, for every epoch; built lazily.
        self._link_tables: list[LinkTable | None] = [None] * awgr_ports

    @property
    def name(self) -> str:
        return "thin-clos"

    @property
    def predefined_slots(self) -> int:
        return self._w

    @property
    def num_awgrs(self) -> int:
        return self._groups * self._ports

    @property
    def awgr_ports(self) -> int:
        return self._w

    @property
    def num_groups(self) -> int:
        """Number of W-ToR groups (equals ports_per_tor in the balanced case)."""
        return self._groups

    def group(self, tor: int) -> int:
        """Group a ToR belongs to."""
        return tor // self._w

    def index_in_group(self, tor: int) -> int:
        """Position of a ToR within its group."""
        return tor % self._w

    def tor_at(self, group: int, index: int) -> int:
        """ToR id of group member ``index``."""
        return (group % self._groups) * self._w + index % self._w

    def predefined_peer(
        self, tor: int, port: int, slot: int, epoch: int = 0
    ) -> int | None:
        self.check_port(port)
        if not 0 <= slot < self._w:
            raise ValueError(f"slot {slot} out of range")
        target_group = (self.group(tor) + port) % self._groups
        peer = self.tor_at(target_group, (self.index_in_group(tor) + slot) % self._w)
        if peer == tor:
            return None
        return peer

    def predefined_links(self, slot: int, epoch: int = 0) -> LinkTable:
        links = self._link_tables[slot]
        if links is None:
            links = super().predefined_links(slot)
            self._link_tables[slot] = links
        return links

    def _pair_table(self) -> list[tuple[int, int] | None]:
        table = self._assignment_table
        if table is None:
            n = self._num_tors
            table = [None] * (n * n)
            for src in range(n):
                for dst in range(n):
                    if src == dst:
                        continue
                    port = (self.group(dst) - self.group(src)) % self._groups
                    slot = (
                        self.index_in_group(dst) - self.index_in_group(src)
                    ) % self._w
                    table[src * n + dst] = (slot, port)
            self._assignment_table = table
        return table

    def predefined_assignment(
        self, src: int, dst: int, epoch: int = 0
    ) -> tuple[int, int]:
        self.check_pair(src, dst)
        return self._pair_table()[src * self._num_tors + dst]

    def assignment_for_epoch(self, epoch: int):
        table = self._pair_table()
        n = self._num_tors

        def assign(src: int, dst: int) -> tuple[int, int]:
            return table[src * n + dst]

        return assign

    def data_port(self, src: int, dst: int) -> int | None:
        self.check_pair(src, dst)
        return (self.group(dst) - self.group(src)) % self._groups

    def reachable_dsts(self, tor: int, port: int) -> tuple[int, ...]:
        self.check_port(port)
        target_group = (self.group(tor) + port) % self._groups
        return tuple(
            self.tor_at(target_group, i)
            for i in range(self._w)
            if self.tor_at(target_group, i) != tor
        )

    def reachable_srcs(self, tor: int, port: int) -> tuple[int, ...]:
        self.check_port(port)
        source_group = (self.group(tor) - port) % self._groups
        return tuple(
            self.tor_at(source_group, i)
            for i in range(self._w)
            if self.tor_at(source_group, i) != tor
        )

    def optical_path(self, src: int, dst: int, port: int) -> OpticalPath:
        self.check_pair(src, dst)
        self.check_port(port)
        required = self.data_port(src, dst)
        if port != required:
            raise ValueError(
                f"pair ({src}, {dst}) can only communicate on port {required}, "
                f"not {port}"
            )
        input_port = self.index_in_group(src)
        output_port = self.index_in_group(dst)
        return OpticalPath(
            awgr_id=self.group(src) * self._ports + port,
            input_port=input_port,
            wavelength=self._awgr.wavelength_for(input_port, output_port),
            output_port=output_port,
        )
