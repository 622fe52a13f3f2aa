"""The vectorized NegotiaToR epoch engine (DESIGN.md section 15).

A drop-in core for the common configuration — parallel network or
thin-clos, base scheduler, no per-epoch recorders — that holds all
per-(src, dst) queue state in batched numpy arrays and replaces the
scalar engine's pair-at-a-time Python loops with whole-fabric array
operations:

* **Columnar queues** — each priority band keeps its *head* segment in
  three flat arrays (``bytes``, ``eligible_ns``, ``flow index``) indexed
  by ``band * n^2 + src * n + dst``; further segments wait in per-slot
  deques that exist only while a band holds two or more segments.
* **Vectorized GRANT/ACCEPT** — round-robin ring pointers live in integer
  arrays, candidate priority is the clockwise rank ``(position -
  pointer) mod ring_length`` read from per-(tor, port) ring tables.  On
  the parallel network one ``argsort`` per epoch reproduces every
  destination's shared-ring ``RoundRobinRing.deal``; on thin-clos a
  ``minimum.at`` scatter keyed by (dst, data port) reproduces every
  per-port GRANT ring, and the same scatter keyed by (src, port)
  reproduces every source's ACCEPT pick on both fabrics.
* **Active sets** — every phase touches only the pairs with pending work
  (``numpy.flatnonzero`` over the pending-byte vector), so an epoch's
  cost scales with traffic, not with the n^2 pair space.

The scalar :class:`~repro.sim.network.NegotiaToRSimulator` remains the
differential-testing oracle: for any fixed seed this engine produces
bit-identical per-flow completion times and materialized summaries (the
golden suites and the hypothesis fuzz harness pin this).  Parallel-network
epochs with detected link failures fall back to an exact Python mirror of
the scalar GRANT path — correctness over speed on the rare failure
epochs; thin-clos GRANT only masks excluded ports out of its scatter.
See DESIGN.md section 15 for the state layout and the equivalence
argument.
"""

from __future__ import annotations

import math
import random
from collections import deque
from collections.abc import Iterable
from time import perf_counter

import numpy as np

from ..core.matching import Match
from ..topology.parallel import ParallelNetwork
from ..topology.thinclos import ThinClos
from .config import EpochTiming, SimConfig
from .failures import FailurePlan, LinkFailureModel
from .flows import Flow
from .kernel import StepKernel

_INF = float("inf")


class VectorizedNegotiaToRSimulator(StepKernel):
    """Array-based NegotiaToR engine, bit-identical to the scalar core.

    Construct through :func:`repro.sim.factory.make_negotiator` — the
    factory verifies the configuration is in this core's supported
    envelope (parallel network or thin-clos, base scheduler, no recorders
    or receiver buffers) and falls back to the scalar engine otherwise.
    """

    def __init__(
        self,
        config: SimConfig,
        topology: ParallelNetwork | ThinClos,
        flows: Iterable[Flow],
        failure_model: LinkFailureModel | None = None,
        failure_plan: FailurePlan | None = None,
        stream: bool = False,
        tracer=None,
    ) -> None:
        if not isinstance(topology, (ParallelNetwork, ThinClos)):
            raise ValueError(
                "the vectorized core only supports the parallel network "
                "and thin-clos"
            )
        if topology.num_tors != config.num_tors:
            raise ValueError("topology and config disagree on num_tors")
        if topology.ports_per_tor != config.ports_per_tor:
            raise ValueError("topology and config disagree on ports_per_tor")
        if config.receiver_buffer_bytes is not None:
            raise ValueError(
                "the vectorized core does not model receiver buffers"
            )
        self.config = config
        self.topology = topology
        self.timing = EpochTiming.derive(
            config.epoch, config.uplink_gbps, topology.predefined_slots
        )
        super().__init__(
            config,
            flows,
            step_ns=self.timing.epoch_ns,
            stream=stream,
            vectorized=True,
            fast_forward=config.idle_fast_forward,
            epoch_clock=True,
            failure_model=failure_model,
            failure_plan=failure_plan,
        )
        n = config.num_tors
        ports = config.ports_per_tor
        self._n = n
        self._ports = ports
        self._m = n - 1
        self._n2 = n * n
        # The parallel network's destinations share one GRANT ring across
        # their ports (Fig 3b); thin-clos keeps one per (dst, port) (Fig 3c).
        self._shared_grant = isinstance(topology, ParallelNetwork)
        self._rotate = self._shared_grant and topology.rotates_per_epoch

        # Per-slot predefined-phase offsets, as arrays for fancy indexing.
        # Times are computed with the scalar engine's exact operand
        # grouping — (start + slot_offset) + propagation — so they stay
        # bit-identical.
        self._slot_starts = np.array(
            [
                self.timing.predefined_slot_start(s)
                for s in range(self.timing.predefined_slots)
            ],
            dtype=np.float64,
        )
        self._slot_ends = np.array(
            [
                self.timing.predefined_slot_end(s)
                for s in range(self.timing.predefined_slots)
            ],
            dtype=np.float64,
        )

        # Ring tables.  Every ring of ToR t lists one W-ToR group (W =
        # awgr_ports; the parallel network is a single group of n) in
        # ascending id order, skipping t itself, so a member's position
        # depends only on (t, member) and a ring's length only on whether
        # its port reaches t's own group.  POS[t, x] is x's position in
        # whichever ring of t holds it (the diagonal is junk and always
        # masked out); RLEN[t * ports + p] is the length of t's port-p
        # ring, GRANT and ACCEPT alike.
        ar = np.arange(n, dtype=np.int64)
        width = topology.awgr_ports
        own_group = np.arange(ports) % (n // width) == 0
        same_group = ar[:, None] // width == ar[None, :] // width
        self._pos = ar[None, :] % width - (
            same_group & (ar[None, :] > ar[:, None])
        )
        self._rlen = np.tile(width - own_group.astype(np.int64), n)

        # Ring-pointer replication: the scalar engine seeds Random(seed)
        # and the matcher draws one randrange(len) per ring in a fixed
        # order — grant rings (per ToR on the parallel network, per
        # (tor, port) on thin-clos), then accept rings in (tor, port)
        # order.  Drawing in the same order lands the same pointers
        # without building any ring objects.
        rng = random.Random(config.seed)
        rlen = self._rlen.tolist()
        grant_lens = rlen[::ports] if self._shared_grant else rlen
        self._gptr = np.array(
            [rng.randrange(k) for k in grant_lens], dtype=np.int64
        )
        self._aptr = np.array([rng.randrange(k) for k in rlen], dtype=np.int64)

        # Predefined (slot, port) of each flat pair id.  The parallel
        # schedule rotates every epoch, so it is derived from the pair's
        # offset (dst - src) mod n per epoch; thin-clos meets every pair at
        # one fixed (slot, port) — its data port — read once from the
        # topology's per-pair table.
        self._off = self._pair_slot = self._pair_port = None
        if self._shared_grant:
            self._off = ((ar[None, :] - ar[:, None]) % n).reshape(-1)
        else:
            assign = topology.assignment_for_epoch(0)
            table = [
                assign(src, dst) if src != dst else (0, 0)
                for src in range(n)
                for dst in range(n)
            ]
            self._pair_slot = np.array([s for s, _ in table], dtype=np.int64)
            self._pair_port = np.array([p for _, p in table], dtype=np.int64)

        if config.priority_queue_enabled:
            self._thresholds = tuple(config.pias_thresholds)
        else:
            self._thresholds = ()
        bands = len(self._thresholds) + 1
        self._bands = bands
        n2 = self._n2
        # Columnar queue state: head segment per (band, pair), flattened.
        self._hb_bytes = np.zeros(bands * n2, dtype=np.int64)
        self._hb_elig = np.zeros(bands * n2, dtype=np.float64)
        self._hb_fidx = np.zeros(bands * n2, dtype=np.int64)
        # Tail segments, keyed by the same flat index; a key exists only
        # while its band holds two or more segments.
        self._tails: dict[int, deque] = {}
        self._pend = np.zeros(n2, dtype=np.int64)
        self._queued = 0
        self._threshold = config.epoch.request_threshold_bytes

        # Flow storage: index-addressed with a free list so streaming
        # runs recycle slots and stay O(flows in flight).
        self._flows: list[Flow | None] = []
        self._f_rem = np.zeros(1024, dtype=np.int64)
        self._free: list[int] = []

        # Three-epoch pipeline registers (PipelinedScheduler equivalent).
        self._ag = np.zeros((n, n), dtype=bool)  # [dst, src] awaiting grant
        self._ag_count = 0
        empty = np.zeros(0, dtype=np.int64)
        self._ga_src = empty
        self._ga_dst = empty
        self._ga_port = empty
        self._grants_issued_last_epoch = 0
        self._tracer = tracer

    # ------------------------------------------------------------------
    # public accessors (scalar-engine API subset)
    # ------------------------------------------------------------------

    epoch = StepKernel.steps
    fast_forwarded_epochs = StepKernel.fast_forwarded_steps

    @property
    def total_queued_bytes(self) -> int:
        """Bytes currently waiting in all per-destination queues."""
        return self._queued

    # ------------------------------------------------------------------
    # kernel bindings (sim/kernel.py, DESIGN.md section 7)
    # ------------------------------------------------------------------

    step_counter = "epochs"
    run = StepKernel.run
    run_until_complete = StepKernel.run_until_complete
    summary = StepKernel.summary

    def is_idle(self) -> bool:
        """No queued data and an empty three-epoch pipeline."""
        return not (
            self._queued
            or self._ag_count
            or len(self._ga_src)
            or self._grants_issued_last_epoch
        )

    # ------------------------------------------------------------------
    # one epoch
    # ------------------------------------------------------------------

    def step_epoch(self) -> list[Match]:
        """Simulate one full epoch; returns the matching it used.

        Matches are returned sorted by (src, port) — a canonical order;
        the scalar engine's list order follows its dict iteration instead.
        The *set* of matches and all queue/tracker state are identical.
        """
        m_src, m_port, m_dst = self.step()
        return list(map(Match, m_src.tolist(), m_port.tolist(), m_dst.tolist()))

    def step(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Simulate one full epoch; returns its (src, port)-sorted match
        arrays, which the run loops discard."""
        epoch = self._step
        start_ns = epoch * self._step_ns
        tracer = self._tracer
        if tracer is not None:
            t_phase = perf_counter()

        self._apply_failures(start_ns)
        self._inject_arrivals(start_ns)

        n = self._n
        ports = self._ports
        any_failed = self.failures.any_failed
        eg_act = in_act = detected = None
        if any_failed:
            eg_act, in_act = self._link_masks(self.failures.failed_link_keys)
        if self.failures.any_detected:
            detected = self._link_masks(self.failures.detected_link_keys)

        # REQUEST: binary demand above the piggyback threshold.
        req_pairs = np.flatnonzero(self._pend > self._threshold)
        num_requests = len(req_pairs)
        if any_failed and num_requests:
            _slot, port = self._predefined(req_pairs, epoch)
            ok = (
                eg_act[(req_pairs // n) * ports + port]
                & in_act[(req_pairs % n) * ports + port]
            )
            del_pairs = req_pairs[ok]
        else:
            del_pairs = req_pairs
        ag_new = np.zeros((n, n), dtype=bool)
        ag_new[del_pairs % n, del_pairs // n] = True

        # GRANT over last epoch's delivered requests.
        if not self._shared_grant:
            g_src, g_dst, g_port, num_grants = self._grant_per_port(detected)
        elif detected is not None:
            g_src, g_dst, g_port, num_grants = self._grant_fallback(detected)
        else:
            g_src, g_dst, g_port, num_grants = self._grant_vector()

        # Grants ride this epoch's predefined phase in the reverse
        # direction (dst -> src); lost when that link is actually down.
        if any_failed and len(g_src):
            _slot, mport = self._predefined(g_dst * n + g_src, epoch)
            keep = eg_act[g_dst * ports + mport] & in_act[g_src * ports + mport]
            g_src, g_dst, g_port = g_src[keep], g_dst[keep], g_port[keep]

        # ACCEPT over last epoch's surviving grants.
        m_src, m_port, m_dst = self._accept_vector(detected)

        grants_answered = self._grants_issued_last_epoch
        self._ag = ag_new
        self._ag_count = len(del_pairs)
        self._ga_src, self._ga_dst, self._ga_port = g_src, g_dst, g_port
        self._grants_issued_last_epoch = num_grants

        # Arrivals inside the epoch become eligible at their arrival time.
        self._inject_arrivals(start_ns + self._step_ns)

        if tracer is not None:
            now = perf_counter()
            tracer.add_span("matching", now - t_phase)
            t_phase = now
            tracer.count("epochs")
            tracer.count("requests", int(num_requests))
            tracer.count("grants", int(grants_answered))
            tracer.count("accepts", len(m_src))
            tracer.count("matches", len(m_src))
            delivered = self.tracker.delivered_bytes

        if self.timing.piggyback_enabled:
            self._run_piggyback(start_ns, epoch, eg_act, in_act)
            if tracer is not None:
                now = perf_counter()
                tracer.add_span("piggyback", now - t_phase)
                t_phase = now
                tracer.count(
                    "piggyback_bytes", self.tracker.delivered_bytes - delivered
                )
                delivered = self.tracker.delivered_bytes
        if tracer is not None:
            # Span-key parity with the scalar engine, which times its
            # (no-op) relay-planning hook here.
            now = perf_counter()
            tracer.add_span("relay", now - t_phase)
            t_phase = now
        self._run_scheduled(m_src, m_port, m_dst, start_ns, eg_act, in_act)
        if tracer is not None:
            tracer.add_span("drain", perf_counter() - t_phase)
            tracer.count(
                "scheduled_bytes", self.tracker.delivered_bytes - delivered
            )

        self.tracker.flush_completions()
        self._step += 1
        if tracer is not None and tracer.gauge_due(int(self.now_ns)):
            tracer.sample(
                int(self.now_ns),
                queued_bytes=self._queued,
                active_pairs=int(np.count_nonzero(self._pend)),
            )
        return m_src, m_port, m_dst

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------

    def _link_masks(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """(egress-ok, ingress-ok) bool arrays over flat (tor, port)."""
        eg = np.ones(self._n * self._ports, dtype=bool)
        ing = np.ones(self._n * self._ports, dtype=bool)
        for key in keys:
            if key & 1:
                ing[key >> 1] = False
            else:
                eg[key >> 1] = False
        return eg, ing

    def _predefined(self, pids: np.ndarray, epoch: int):
        """(slot, port) arrays of each flat pair id's predefined meeting."""
        if self._pair_slot is not None:
            return self._pair_slot[pids], self._pair_port[pids]
        rot = epoch % self._m if self._rotate else 0
        index = (self._off[pids] - 1 - rot) % self._m
        return index // self._ports, index % self._ports

    # ------------------------------------------------------------------
    # arrivals and flow storage
    # ------------------------------------------------------------------

    def _enqueue(self, flow: Flow) -> None:
        fidx = self._alloc_flow(flow)
        pid = flow.src * self._n + flow.dst
        size = flow.size_bytes
        when = flow.arrival_ns
        offset = 0
        for band, threshold in enumerate(self._thresholds):
            span = min(size, threshold) - offset
            if span > 0:
                self._enqueue_segment(band, pid, fidx, span, when)
                offset += span
            if offset >= size:
                break
        tail = size - offset
        if tail > 0:
            self._enqueue_segment(self._bands - 1, pid, fidx, tail, when)
        self._pend[pid] += size
        self._queued += size

    def _alloc_flow(self, flow: Flow) -> int:
        if self._free:
            fidx = self._free.pop()
            self._flows[fidx] = flow
        else:
            fidx = len(self._flows)
            self._flows.append(flow)
            if fidx >= len(self._f_rem):
                grown = np.zeros(len(self._f_rem) * 2, dtype=np.int64)
                grown[: len(self._f_rem)] = self._f_rem
                self._f_rem = grown
        self._f_rem[fidx] = flow.size_bytes
        return fidx

    def _enqueue_segment(
        self, band: int, pid: int, fidx: int, num_bytes: int, elig_ns: float
    ) -> None:
        flat = band * self._n2 + pid
        if self._hb_bytes[flat] == 0:
            self._hb_bytes[flat] = num_bytes
            self._hb_elig[flat] = elig_ns
            self._hb_fidx[flat] = fidx
        else:
            tail = self._tails.get(flat)
            if tail is None:
                tail = deque()
                self._tails[flat] = tail
            tail.append((fidx, num_bytes, elig_ns))

    def _refill(self, flat: int) -> None:
        """Promote the next tail segment after a head empties.

        Maintains the invariant that a band's head is empty only when the
        whole band is — the vector phases test ``head_bytes > 0`` as the
        band-nonempty predicate.
        """
        tail = self._tails.get(flat)
        if tail is None:
            return
        fidx, num_bytes, elig_ns = tail.popleft()
        if not tail:
            del self._tails[flat]
        self._hb_bytes[flat] = num_bytes
        self._hb_elig[flat] = elig_ns
        self._hb_fidx[flat] = fidx

    def _complete(self, fidx: int, time_ns: float) -> None:
        flow = self._flows[fidx]
        self.tracker.complete(flow, time_ns)
        self._flows[fidx] = None
        self._free.append(fidx)

    def _credit(self, dst_totals: np.ndarray) -> None:
        tracker = self.tracker
        for dst in np.flatnonzero(dst_totals):
            tracker.credit_delivered(int(dst), int(dst_totals[dst]))

    # ------------------------------------------------------------------
    # GRANT / ACCEPT
    # ------------------------------------------------------------------

    def _grant_vector(self):
        """All destinations' ``RoundRobinRing.deal`` in one argsort
        (parallel network: one shared ring of length n - 1 per dst)."""
        counts = self._ag.sum(axis=1)
        dact = np.flatnonzero(counts)
        ports = self._ports
        if not len(dact):
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty, 0
        m = self._m
        rank = (self._pos[dact] - self._gptr[dact, None]) % m
        rank = np.where(self._ag[dact], rank, m)
        order = np.argsort(rank, axis=1, kind="stable")
        k = counts[dact]
        cols = np.arange(ports, dtype=np.int64)[None, :] % k[:, None]
        picks = np.take_along_axis(order, cols, axis=1)
        self._gptr[dact] = (self._pos[dact, picks[:, ports - 1]] + 1) % m
        g_dst = np.repeat(dact, ports)
        g_src = picks.reshape(-1)
        g_port = np.tile(np.arange(ports, dtype=np.int64), len(dact))
        return g_src, g_dst, g_port, len(dact) * ports

    def _ring_scatter(self, key, pos, ptr):
        """Every (tor, port) ring's pick among its candidates at once.

        ``key`` is each candidate's ring (``tor * ports + port``), ``pos``
        its position in that ring, and ``ptr`` the rings' pointer table.
        Candidates of one ring have distinct positions, so the minimum
        clockwise rank identifies the scalar ``pick`` exactly.  Returns
        the winner mask and advances each winning ring's pointer past
        its pick.
        """
        rlen = self._rlen[key]
        rank = (pos - ptr[key]) % rlen
        best = np.full(self._n * self._ports, self._n, dtype=np.int64)
        np.minimum.at(best, key, rank)
        win = rank == best[key]
        ptr[key[win]] = (pos[win] + 1) % rlen[win]
        return win

    def _grant_per_port(self, detected):
        """Thin-clos GRANT: every (dst, port) ring's pick in one min-rank
        scatter, the same shape as :meth:`_accept_vector`.

        A request (src, dst) lands in exactly one ring — dst's ring for
        the pair's data port — so the ring's ``pick`` over all of dst's
        requests is the minimum clockwise rank within that (dst, port)
        group.  On detected-failure epochs ``detected`` holds the
        (egress, ingress) masks and requests on an excluded port are
        dropped before the scatter, mirroring ``_grant_thinclos``.
        """
        n = self._n
        ports = self._ports
        dsts, srcs = np.nonzero(self._ag)
        port = self._pair_port[srcs * n + dsts]
        if detected is not None:
            det_eg, det_in = detected
            ok = det_in[dsts * ports + port] & det_eg[srcs * ports + port]
            dsts, srcs, port = dsts[ok], srcs[ok], port[ok]
        if not len(dsts):
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty, 0
        win = self._ring_scatter(
            dsts * ports + port, self._pos[dsts, srcs], self._gptr
        )
        g_src = srcs[win]
        return g_src, dsts[win], port[win], len(g_src)

    def _grant_fallback(self, detected):
        """Exact scalar GRANT mirror for parallel-network epochs with
        detected failures."""
        ports = self._ports
        m = self._m
        pos = self._pos
        gptr = self._gptr
        det_eg, det_in = detected
        out_src: list[int] = []
        out_dst: list[int] = []
        out_port: list[int] = []
        num_grants = 0
        for dst in np.flatnonzero(self._ag.any(axis=1)):
            dst = int(dst)
            cand = [int(s) for s in np.flatnonzero(self._ag[dst])]
            usable_ports = [
                p for p in range(ports) if det_in[dst * ports + p]
            ]
            if not usable_ports:
                continue
            row = pos[dst]
            if all(
                det_eg[s * ports + p] for s in cand for p in usable_ports
            ):
                ordered = sorted(cand, key=lambda s: (row[s] - gptr[dst]) % m)
                picks = [
                    ordered[i % len(ordered)]
                    for i in range(len(usable_ports))
                ]
                gptr[dst] = (row[picks[-1]] + 1) % m
                for port, src in zip(usable_ports, picks):
                    out_src.append(src)
                    out_dst.append(dst)
                    out_port.append(port)
                    num_grants += 1
            else:
                # A source with a detected-failed egress port must not be
                # granted that port: per-port picks, pointer moving after
                # each pick (the scalar ring.pick path).
                for port in usable_ports:
                    eligible = [
                        s for s in cand if det_eg[s * ports + port]
                    ]
                    if not eligible:
                        continue
                    src = min(
                        eligible, key=lambda s: (row[s] - gptr[dst]) % m
                    )
                    gptr[dst] = (row[src] + 1) % m
                    out_src.append(src)
                    out_dst.append(dst)
                    out_port.append(port)
                    num_grants += 1
        return (
            np.array(out_src, dtype=np.int64),
            np.array(out_dst, dtype=np.int64),
            np.array(out_port, dtype=np.int64),
            num_grants,
        )

    def _accept_vector(self, detected):
        """All sources' per-port ACCEPT picks via one min-rank scatter.

        Every grant row of a (src, port) group shares the group's
        predicate and ring, and candidate dsts are distinct, so ranks
        within a group are unique and the minimum identifies the scalar
        pick exactly.  Groups on a detected-failed egress port are
        dropped whole with no pointer movement, as in the scalar path.
        """
        ga_src, ga_dst, ga_port = self._ga_src, self._ga_dst, self._ga_port
        if not len(ga_src):
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        ports = self._ports
        if detected is not None:
            keep = detected[0][ga_src * ports + ga_port]
            ga_src, ga_dst, ga_port = (
                ga_src[keep],
                ga_dst[keep],
                ga_port[keep],
            )
            if not len(ga_src):
                empty = np.zeros(0, dtype=np.int64)
                return empty, empty, empty
        win = self._ring_scatter(
            ga_src * ports + ga_port, self._pos[ga_src, ga_dst], self._aptr
        )
        m_src, m_port, m_dst = ga_src[win], ga_port[win], ga_dst[win]
        order = np.argsort(m_src * ports + m_port)
        return m_src[order], m_port[order], m_dst[order]

    # ------------------------------------------------------------------
    # predefined (piggyback) phase
    # ------------------------------------------------------------------

    def _run_piggyback(self, start_ns, epoch, eg_act, in_act) -> None:
        act = np.flatnonzero(self._pend)
        if not len(act):
            return
        n = self._n
        ports = self._ports
        slot, port = self._predefined(act, epoch)
        if eg_act is not None:
            ok = (
                eg_act[(act // n) * ports + port]
                & in_act[(act % n) * ports + port]
            )
            act, slot = act[ok], slot[ok]
            if not len(act):
                return
        now = start_ns + self._slot_starts[slot]
        hb, he = self._hb_bytes, self._hb_elig
        n2 = self._n2
        chosen = np.full(len(act), -1, dtype=np.int64)
        for band in range(self._bands):
            flat = band * n2 + act
            hit = (chosen < 0) & (hb[flat] > 0) & (he[flat] <= now)
            if hit.any():
                chosen[hit] = band
        served = chosen >= 0
        if not served.any():
            return
        act = act[served]
        slot = slot[served]
        flat = chosen[served] * n2 + act
        head = hb[flat]
        taken = np.minimum(head, self.timing.piggyback_payload_bytes)
        hb[flat] = head - taken
        fidx = self._hb_fidx[flat]
        deliver_ns = (
            start_ns + self._slot_ends[slot]
        ) + self.config.propagation_ns
        self._f_rem[fidx] -= taken
        self._pend[act] -= taken
        self._queued -= int(taken.sum())
        dst_totals = np.zeros(n, dtype=np.int64)
        np.add.at(dst_totals, act % n, taken)
        self._credit(dst_totals)
        for i in np.flatnonzero(head == taken):
            self._refill(int(flat[i]))
        for i in np.flatnonzero(self._f_rem[fidx] == 0):
            self._complete(int(fidx[i]), float(deliver_ns[i]))

    # ------------------------------------------------------------------
    # scheduled phase
    # ------------------------------------------------------------------

    def _run_scheduled(
        self, m_src, m_port, m_dst, start_ns, eg_act, in_act
    ) -> None:
        if not len(m_src):
            return
        if eg_act is not None:
            ports = self._ports
            ok = (
                eg_act[m_src * ports + m_port]
                & in_act[m_dst * ports + m_port]
            )
            m_src, m_dst = m_src[ok], m_dst[ok]
            if not len(m_src):
                return
        timing = self.timing
        payload = timing.data_payload_bytes
        slot_ns = timing.scheduled_slot_ns
        scheduled_slots = timing.scheduled_slots
        phase_start = start_ns + timing.predefined_ns
        pid = m_src * self._n + m_dst
        upid, lanes = np.unique(pid, return_counts=True)
        nz = self._pend[upid] > 0
        upid, lanes = upid[nz], lanes[nz]
        if not len(upid):
            return
        num_slots = scheduled_slots * lanes
        cap = num_slots * payload

        # Fast path: the whole phase serves one head segment — it is the
        # highest eligible band at phase start, large enough to fill every
        # slot, and no higher-priority head becomes eligible before the
        # last slot starts.  Everything else takes the exact scalar walk.
        hb, he = self._hb_bytes, self._hb_elig
        n2 = self._n2
        chosen = np.full(len(upid), -1, dtype=np.int64)
        preempt = np.full(len(upid), _INF)
        for band in range(self._bands):
            flat = band * n2 + upid
            nonempty = hb[flat] > 0
            elig = he[flat]
            hit = (chosen < 0) & nonempty & (elig <= phase_start)
            if hit.any():
                chosen[hit] = band
            pending_above = (chosen < 0) & nonempty
            np.minimum.at(preempt, np.flatnonzero(pending_above),
                          elig[pending_above])
        last_start = phase_start + (scheduled_slots - 1) * slot_ns
        flat = np.maximum(chosen, 0) * n2 + upid
        fast = (chosen >= 0) & (hb[flat] >= cap) & (preempt > last_start)

        fpid = upid[fast]
        if len(fpid):
            fflat = flat[fast]
            fcap = cap[fast]
            hb[fflat] -= fcap
            fidx = self._hb_fidx[fflat]
            self._f_rem[fidx] -= fcap
            self._pend[fpid] -= fcap
            self._queued -= int(fcap.sum())
            deliver_ns = (
                phase_start + scheduled_slots * slot_ns
            ) + self.config.propagation_ns
            dst_totals = np.zeros(self._n, dtype=np.int64)
            np.add.at(dst_totals, fpid % self._n, fcap)
            self._credit(dst_totals)
            for i in np.flatnonzero(hb[fflat] == 0):
                self._refill(int(fflat[i]))
            for i in np.flatnonzero(self._f_rem[fidx] == 0):
                self._complete(int(fidx[i]), deliver_ns)

        slow = np.flatnonzero(~fast)
        for j in slow:
            self._drain_pair(
                int(upid[j]),
                int(num_slots[j]),
                int(lanes[j]),
                phase_start,
                slot_ns,
                payload,
            )

    def _drain_pair(
        self, pid, num_slots, lanes, phase_start, slot_ns, payload
    ) -> None:
        """Exact mirror of ``PiasDestQueue.drain_slots`` on columnar state.

        Uses the scalar path's float expressions verbatim — including
        ``math.ceil`` over float division for slot counts — so chunk
        boundaries and delivery times stay bit-identical.
        """
        n2 = self._n2
        hb, he, hf = self._hb_bytes, self._hb_elig, self._hb_fidx
        bands = self._bands
        propagation = self.config.propagation_ns
        sent = 0
        dst_totals = None
        slot = 0
        while slot < num_slots:
            now = phase_start + (slot // lanes) * slot_ns
            band = -1
            for b in range(bands):
                flat = b * n2 + pid
                if hb[flat] > 0 and he[flat] <= now:
                    band = b
                    break
            if band < 0:
                wake = _INF
                for b in range(bands):
                    flat = b * n2 + pid
                    if hb[flat] > 0 and he[flat] < wake:
                        wake = float(he[flat])
                if wake == _INF:
                    break
                while (
                    slot < num_slots
                    and phase_start + (slot // lanes) * slot_ns < wake
                ):
                    slot += 1
                continue
            flat = band * n2 + pid
            head = int(hb[flat])
            run = min(num_slots - slot, math.ceil(head / payload))
            preempt = _INF
            for b in range(band):
                f2 = b * n2 + pid
                if hb[f2] > 0 and he[f2] < preempt:
                    preempt = float(he[f2])
            if preempt != _INF:
                capped = slot
                while (
                    capped < slot + run
                    and phase_start + (capped // lanes) * slot_ns < preempt
                ):
                    capped += 1
                run = capped - slot
                if run == 0:
                    run = 1
            taken = min(head, run * payload)
            hb[flat] = head - taken
            fidx = int(hf[flat])
            last_slot = slot + math.ceil(taken / payload) - 1
            deliver_ns = (
                phase_start + (last_slot // lanes + 1) * slot_ns + propagation
            )
            self._f_rem[fidx] -= taken
            sent += taken
            if self._f_rem[fidx] == 0:
                self._complete(fidx, deliver_ns)
            if hb[flat] == 0:
                self._refill(flat)
            slot += run
        if sent:
            self._pend[pid] -= sent
            self._queued -= sent
            self.tracker.credit_delivered(pid % self._n, sent)
