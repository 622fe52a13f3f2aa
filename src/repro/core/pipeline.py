"""The three-epoch scheduling pipeline (section 3.3.1, Fig 4).

One scheduling process spans three epochs: requests computed at epoch ``p``
ride that epoch's predefined phase, the destinations grant at ``p+1``, and
the sources accept at ``p+2`` — whose scheduled phase then carries the data.
Epoch ``n`` therefore simultaneously transports ``request_n``, ``grant_{n-1}``
and ``accept_{n-2}``, and the effective scheduling delay is about two epochs.

The engine owns message *delivery* (including loss on failed links); this
class owns the hand-off of surviving messages between pipeline stages and the
pairing of accepts with the grants they answer (for the match-ratio metric).
"""

from __future__ import annotations

from collections.abc import Callable

from .matching import Grant, NegotiaToRMatcher, PairMatch, PortPredicate, count_ports

GrantsBySrc = dict[int, list[Grant]]
RequestsByDst = dict[int, dict[int, object]]
GrantDelivery = Callable[[GrantsBySrc], GrantsBySrc]


class PipelinedScheduler:
    """Carries in-flight scheduling messages across consecutive epochs."""

    def __init__(self, matcher: NegotiaToRMatcher) -> None:
        self._matcher = matcher
        self._awaiting_grant: RequestsByDst = {}
        self._awaiting_accept: GrantsBySrc = {}
        self._grants_issued_last_epoch = 0

    @property
    def matcher(self) -> NegotiaToRMatcher:
        """The ring-state holder this pipeline drives."""
        return self._matcher

    @property
    def is_idle(self) -> bool:
        """Whether advancing with no input would be an exact no-op.

        True when no request, grant, or grant-count is in flight: the engine
        may then skip whole epochs (idle fast-forward, DESIGN.md section 7)
        without changing any observable state.  Stateful subclasses override
        this to account for their extra in-flight state.
        """
        return (
            not self._awaiting_grant
            and not self._awaiting_accept
            and self._grants_issued_last_epoch == 0
        )

    def advance(
        self,
        delivered_requests: RequestsByDst,
        deliver_grants: GrantDelivery,
        rx_usable: PortPredicate | None = None,
        tx_usable: PortPredicate | None = None,
    ) -> tuple[list[PairMatch], int, int]:
        """Run one epoch's GRANT and ACCEPT stages.

        ``delivered_requests`` are this epoch's requests that survived the
        predefined phase (granted next epoch).  ``deliver_grants`` applies
        this epoch's message-loss filter to the grants issued now (accepted
        next epoch).

        Returns ``(matches, grants_answered, accepts)`` where ``matches``
        (``(src, dst, ports)`` groups) drive this epoch's scheduled phase,
        ``accepts`` counts their ports and ``grants_answered`` is the number
        of grants those accepts respond to (issued one epoch earlier), i.e.
        the denominator of this epoch's match ratio.
        """
        grants_by_src, num_grants = self._matcher.grant_step(
            self._awaiting_grant, rx_usable, tx_usable
        )
        surviving_grants = deliver_grants(grants_by_src) if grants_by_src else {}

        matches = self._matcher.accept_step(self._awaiting_accept, tx_usable)

        grants_answered = self._grants_issued_last_epoch
        self._awaiting_grant = dict(delivered_requests)
        self._awaiting_accept = surviving_grants
        self._grants_issued_last_epoch = num_grants
        return matches, grants_answered, count_ports(matches)

    def reset(self) -> None:
        """Drop all in-flight messages (used after catastrophic failures)."""
        self._awaiting_grant = {}
        self._awaiting_accept = {}
        self._grants_issued_last_epoch = 0

    # ------------------------------------------------------------------
    # engine hooks for scheduler variants (section 3.5 / appendix A.2)
    # ------------------------------------------------------------------

    def request_payload(self, src: int, dst: int, queue, now_ns: float):
        """Payload attached to a REQUEST — None, because requests are binary.

        Variants override this: the data-size variant reports queued bytes,
        the HoL-delay variant a weighted waiting time, the stateful variant
        newly arrived bytes.
        """
        return None

    def observe_sent(self, src: int, dst: int, num_bytes: int) -> None:
        """Notification of scheduled-phase bytes actually sent (no-op here).

        The stateful variant uses this to reconcile its demand matrices.
        """
