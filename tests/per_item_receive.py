"""The per-item broadcast receive loop, kept as a differential oracle.

Before the shared receive path
(:meth:`repro.broadcast.authenticated.AuthenticatedBroadcast.receive`)
every host parsed each received bundle itself and called
``note_init`` / ``note_echo`` for every item, every round; ``note_echo``
re-counted repeats and ``outgoing`` re-sorted the echo tuple each round.
The classes here restore exactly that, as subclasses of the production
classes, so tests and the echo bench can check that the shared receive
path changes no payload, delivery, accept or decision -- and measure
how much work it saves.
"""

from __future__ import annotations

from typing import Hashable

from repro.broadcast.authenticated import (
    AuthenticatedBroadcast,
    BroadcastKey,
    parse_broadcast_items,
)
from repro.broadcast.hosts import AB_BUNDLE_TAG, AuthenticatedBroadcastHost
from repro.broadcast.reliable import BUNDLE_TAG as RBC_TAG
from repro.broadcast.reliable import ReliableBroadcastProcess
from repro.core.messages import Inbox
from repro.psync.dls_homonyms import BUNDLE_TAG as FIG5_TAG
from repro.psync.dls_homonyms import DLSHomonymProcess
from repro.psync.proper import decode_proper


class PerItemBroadcast(AuthenticatedBroadcast):
    """The primitive with the per-item ``note_echo`` and ``outgoing``."""

    def outgoing(self, round_no: int) -> tuple[tuple, tuple]:
        inits = tuple(
            sorted(
                (
                    ("init", m, r)
                    for m, r in self._pending_inits
                    if 2 * r == round_no
                ),
                key=repr,
            )
        )
        self._pending_inits = [
            (m, r) for m, r in self._pending_inits if 2 * r > round_no
        ]
        echoes = tuple(
            sorted((("echo", m, r, i) for (m, r, i) in self._echoing), key=repr)
        )
        return inits, echoes

    def note_echo(
        self,
        sender_id: int,
        message: Hashable,
        superround: int,
        echoed_ident: int,
        round_no: int,
    ) -> None:
        key: BroadcastKey = (message, int(superround), int(echoed_ident))
        ids = self._echo_ids.setdefault(key, set())
        ids.add(int(sender_id))
        if len(ids) >= self.ell - 2 * self.t:
            self._echoing.add(key)
        if len(ids) >= self.ell - self.t:
            self._accept(key, round_no // 2)

    def receive_items(self, sender_id: int, items, round_no: int) -> None:
        """Note every parsed item of ``items``, inits first."""
        inits, echoes = parse_broadcast_items(items)
        for mm, r in inits:
            self.note_init(sender_id, mm, r, round_no)
        for mm, r, i in echoes:
            self.note_echo(sender_id, mm, r, i, round_no)


def per_item_broadcast(ab: AuthenticatedBroadcast) -> PerItemBroadcast:
    """A fresh :class:`PerItemBroadcast` configured like ``ab``."""
    return PerItemBroadcast(ab.ell, ab.t, ab.ident, unchecked=True)


class PerItemDLSProcess(DLSHomonymProcess):
    """Figure 5 with the per-item receive loop."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ab = per_item_broadcast(self.ab)

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        phase, pos, first = self.position(round_no)
        acks_this_round: dict[Hashable, set[int]] = {}
        decides_this_round: dict[Hashable, set[int]] = {}

        for m in inbox:
            payload = m.payload
            if not (
                isinstance(payload, tuple)
                and len(payload) == 5
                and payload[0] == FIG5_TAG
                and isinstance(payload[1], tuple)
                and isinstance(payload[2], tuple)
                and isinstance(payload[3], tuple)
            ):
                continue
            self.ab.receive_items(m.sender_id, payload[1] + payload[2],
                                  round_no)
            proper_values = decode_proper(payload[4], self.problem)
            if proper_values is not None:
                self.proper.note(m.sender_id, proper_values)
            for item in payload[3]:
                self._route_direct(m.sender_id, item, phase, acks_this_round,
                                   decides_this_round)

        self._absorb_accepts()

        if first and pos == 3 and self._is_leader(phase):
            wanted = self._own_lock.get(phase)
            if wanted is not None and len(
                acks_this_round.get(wanted, ())
            ) >= self.quorum:
                self.record_decision(wanted, round_no)

        if not first and pos == 3:
            self._relay_decisions(decides_this_round, round_no)
            self._release_stale_locks()


def per_item_dls_factory(params, problem, unchecked: bool = False):
    """:func:`repro.psync.dls_homonyms.dls_factory` for the oracle."""

    def factory(identifier: int, proposal: Hashable) -> PerItemDLSProcess:
        return PerItemDLSProcess(
            params, problem, identifier, proposal, unchecked=unchecked
        )

    return factory


class PerItemBroadcastHost(AuthenticatedBroadcastHost):
    """The authenticated-broadcast host with the per-item loop."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ab = per_item_broadcast(self.ab)

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        for m in inbox:
            payload = m.payload
            if not (
                isinstance(payload, tuple)
                and len(payload) == 3
                and payload[0] == AB_BUNDLE_TAG
            ):
                continue
            self.ab.receive_items(m.sender_id, payload[1] + payload[2],
                                  round_no)
        self.accepts.extend(self.ab.drain_accepts())


class PerItemReliableProcess(ReliableBroadcastProcess):
    """The reliable broadcast with the per-item loop."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ab = per_item_broadcast(self.ab)

    def deliver(self, round_no: int, inbox: Inbox) -> None:
        for m in inbox:
            payload = m.payload
            if not (
                isinstance(payload, tuple)
                and len(payload) == 3
                and payload[0] == RBC_TAG
            ):
                continue
            self.ab.receive_items(m.sender_id, payload[1] + payload[2],
                                  round_no)

        superround = round_no // 2
        for accept in self.ab.drain_accepts():
            msg = accept.message
            if accept.ident != self.sender_ident:
                continue
            if not (isinstance(msg, tuple) and len(msg) == 2
                    and msg[0] == "rbc-value"):
                continue
            self._accepted_values.setdefault(msg[1], accept.superround)

        if self.decided or not self._accepted_values:
            return
        if round_no % 2 == 1:
            first = min(self._accepted_values.values())
            if superround >= first + 1:
                value = min(self._accepted_values, key=repr)
                self.record_decision(value, round_no)
