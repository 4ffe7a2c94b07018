"""First-class host processes for the broadcast protocol layers.

The broadcast modules are deliberately *layers*, not processes: the
algorithms that embed them (Figure 5 agreement, the reliable-broadcast
extension) own the round loop.  For driving a layer directly through
the execution kernel -- the broadcast test-suites and the conformance
grid -- these hosts supply the minimal embedding: broadcast one value
in a chosen superround, fold the layer's outgoing items into the round
payload, feed received items back in, and record every ``Accept``.

Payload shapes (stable, pinned by the conformance suite):

* authenticated: ``(AB_BUNDLE_TAG, inits, echoes)``;
* multiplicity: ``(MB_BUNDLE_TAG, items)``.
"""

from __future__ import annotations

from typing import Hashable

from repro.broadcast.authenticated import Accept, AuthenticatedBroadcast
from repro.broadcast.multiplicity import (
    MultiplicityAccept,
    MultiplicityBroadcast,
)
from repro.core.messages import Inbox
from repro.sim.process import Process

AB_BUNDLE_TAG = "ab"
MB_BUNDLE_TAG = "mb"


class AuthenticatedBroadcastHost(Process):
    """Minimal host around :class:`AuthenticatedBroadcast`.

    Broadcasts ``("val", value)`` in the first round of
    ``broadcast_superround`` when ``value`` is not ``None``, hands every
    received ``AB_BUNDLE_TAG`` bundle to
    :meth:`~repro.broadcast.authenticated.AuthenticatedBroadcast.receive`,
    and records every :class:`~repro.broadcast.authenticated.Accept` it
    performs into :attr:`accepts`.
    """

    def __init__(
        self,
        identifier: int,
        ell: int,
        t: int,
        value: Hashable = None,
        broadcast_superround: int = 0,
        unchecked: bool = False,
    ) -> None:
        super().__init__(identifier, value)
        self.value = value
        self.broadcast_superround = int(broadcast_superround)
        self.ab = AuthenticatedBroadcast(ell, t, identifier, unchecked=unchecked)
        self.accepts: list[Accept] = []

    def compose(self, round_no: int) -> Hashable:
        if (
            self.value is not None
            and round_no == 2 * self.broadcast_superround
        ):
            self.ab.broadcast(("val", self.value), self.broadcast_superround)
        inits, echoes = self.ab.outgoing(round_no)
        return (AB_BUNDLE_TAG, inits, echoes)

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        for m in inbox:
            payload = m.payload
            if (
                isinstance(payload, tuple)
                and len(payload) == 3
                and payload[0] == AB_BUNDLE_TAG
            ):
                self.ab.receive(m.sender_id, payload, round_no)
        self.accepts.extend(self.ab.drain_accepts())


class MultiplicityBroadcastHost(Process):
    """Minimal host around :class:`MultiplicityBroadcast`.

    Broadcasts ``value`` in the first round of ``broadcast_superround``
    when ``value`` is not ``None``, and records every
    :class:`~repro.broadcast.multiplicity.MultiplicityAccept` into
    :attr:`accepts`.
    """

    def __init__(
        self,
        identifier: int,
        n: int,
        t: int,
        value: Hashable = None,
        broadcast_superround: int = 0,
        unchecked: bool = False,
    ) -> None:
        super().__init__(identifier, value)
        self.value = value
        self.broadcast_superround = int(broadcast_superround)
        self.mb = MultiplicityBroadcast(n, t, identifier, unchecked=unchecked)
        self.accepts: list[MultiplicityAccept] = []

    def compose(self, round_no: int) -> Hashable:
        if (
            self.value is not None
            and round_no == 2 * self.broadcast_superround
        ):
            self.mb.broadcast(self.value, self.broadcast_superround)
        return (MB_BUNDLE_TAG, self.mb.outgoing(round_no))

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        for m in inbox:
            payload = m.payload
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == MB_BUNDLE_TAG
            ):
                self.mb.note_message(m.sender_id, payload[1], round_no)
        self.accepts.extend(self.mb.end_round(round_no))
