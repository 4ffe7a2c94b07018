"""Authenticated broadcast for homonymous systems (Proposition 6).

The Figure 5 agreement algorithm is built on an authenticated broadcast
primitive generalising Srikanth--Toueg [20] / DLS [9] to homonyms.  It
is implementable in the basic partially synchronous model whenever
``ell > 3t`` and provides, with ``T`` the first superround from which
all messages are delivered:

* **Correctness** -- if a process with identifier ``i`` performs
  ``Broadcast(m)`` in superround ``r >= T``, every correct process
  performs ``Accept(m, i)`` during superround ``r``.
* **Unforgeability** -- if all processes with identifier ``i`` are
  correct and none of them broadcast ``m``, no correct process ever
  performs ``Accept(m, i)``.
* **Relay** -- if some correct process performs ``Accept(m, i)`` during
  superround ``r``, every correct process performs ``Accept(m, i)`` by
  superround ``max(r + 1, T)``.

Mechanism (quoting the paper): the broadcaster sends ``<init m>`` in
the first round of superround ``r``; any process receiving it from
identifier ``i`` sends ``<echo m, r, i>`` in the following round *and in
all subsequent rounds*; any process that has received the echo from
``ell - 2t`` distinct identifiers joins the echoers; receiving the echo
from ``ell - t`` distinct identifiers triggers ``Accept(m, i)``.
Because ``ell - 2t > t``, the first echoer for a never-broadcast message
of a fully correct identifier would have to be correct -- impossible --
which gives unforgeability; because echoes persist, thresholds crossed
anywhere eventually cross everywhere -- relay.

This module is a *layer*, not a process: the host algorithm embeds one
:class:`AuthenticatedBroadcast` per process, folds
:meth:`AuthenticatedBroadcast.outgoing` into its round payloads, hands
every received bundle to :meth:`AuthenticatedBroadcast.receive`, and
consumes the resulting :class:`Accept` events.

Because echoes are re-sent every round and homonyms send identical
bundles, almost every received echo repeats one already counted.  The
receive path counts each ``(sender id, echo)`` pair once: it parses a
bundle object once however many receivers it reaches, skips a bundle
whose echoes were all absorbed from that sender id before, and
:meth:`AuthenticatedBroadcast.note_echo` returns early on a sender it
has already counted.  All three are exact -- both thresholds can only
fire on an insert that grows a key's identifier set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.core.errors import BoundViolation


@dataclass(frozen=True)
class Accept:
    """An ``Accept(m, i)`` event, with the superround it occurred in."""

    message: Hashable
    ident: int
    superround: int


#: Key identifying one logical broadcast instance: (message, superround, id).
BroadcastKey = tuple[Hashable, int, int]


class AuthenticatedBroadcast:
    """Per-process state of the Proposition 6 primitive.

    Engine rounds are 0-indexed; superround ``r`` spans rounds ``2r``
    and ``2r + 1``.  The host must call, each round and in this order:

    1. :meth:`broadcast` (optionally, first round of a superround only),
    2. :meth:`outgoing` when composing its payload, whose bundle carries
       the returned inits and echoes at positions 1 and 2,
    3. :meth:`receive` once per received bundle, in inbox order,
    4. :meth:`drain_accepts` to collect new ``Accept`` events.

    :meth:`note_init` / :meth:`note_echo` record single items; the
    receive path calls them for every item it cannot prove redundant.
    The receive caches (the echo set last absorbed per sender id, the
    last outgoing echo tuple) are not state: copies start without them
    and :meth:`__getstate__` leaves them out, so state digests of two
    processes in the same protocol state stay equal.
    """

    #: Attributes that only cache work; see :meth:`__getstate__`.
    _CACHES = ("_absorbed", "_sent_echoes")

    def __init__(self, ell: int, t: int, ident: int, unchecked: bool = False) -> None:
        if ell <= 3 * t and not unchecked:
            raise BoundViolation(
                f"authenticated broadcast requires ell > 3t, got ell={ell}, t={t}"
            )
        self.ell = int(ell)
        self.t = int(t)
        self.ident = int(ident)
        self._pending_inits: list[tuple[Hashable, int]] = []  # (m, superround)
        self._echoing: set[BroadcastKey] = set()
        self._echo_ids: dict[BroadcastKey, set[int]] = {}
        self._accepted: dict[tuple[Hashable, int], int] = {}  # (m, i) -> superround
        self._fresh_accepts: list[Accept] = []
        self._clear_caches()

    def _clear_caches(self) -> None:
        #: sender id -> the echo set of a bundle fully absorbed from it.
        self._absorbed: dict[int, frozenset] = {}
        #: The last :meth:`outgoing` echo tuple; valid while its length
        #: equals ``len(self._echoing)``, which only ever grows.
        self._sent_echoes: tuple = ()

    def __getstate__(self) -> dict[str, Any]:
        """The protocol state: everything but the receive caches."""
        return {
            name: value for name, value in self.__dict__.items()
            if name not in self._CACHES
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._clear_caches()

    # ------------------------------------------------------------------
    # Sending side
    # ------------------------------------------------------------------
    def broadcast(self, message: Hashable, superround: int) -> None:
        """Queue ``Broadcast(message)`` for ``superround``.

        Must be called while composing the *first* round of that
        superround; the init item rides on that round's payload.
        """
        self._pending_inits.append((message, int(superround)))

    def outgoing(self, round_no: int) -> tuple[tuple, tuple]:
        """Items to embed in this round's payload: ``(inits, echoes)``.

        Init items are ``("init", m, r)`` and are only produced in the
        first round of their superround; echo items are
        ``("echo", m, r, i)`` and are re-sent every round once active
        (the persistence the relay property needs).
        """
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
        if len(self._sent_echoes) != len(self._echoing):
            self._sent_echoes = tuple(
                sorted(
                    (("echo", m, r, i) for (m, r, i) in self._echoing),
                    key=repr,
                )
            )
        return inits, self._sent_echoes

    # ------------------------------------------------------------------
    # Receiving side
    # ------------------------------------------------------------------
    def receive(self, sender_id: int, bundle: tuple, round_no: int) -> None:
        """Absorb one received bundle from identifier ``sender_id``.

        ``bundle`` is the host's payload tuple, already matched on its
        tag; positions 1 and 2 hold the init and echo item tuples
        (anything else there is Byzantine noise and is dropped).  Inits
        are noted every time, since whether one counts depends on the
        round.  Echoes are skipped when this sender id's last fully
        absorbed echo set already holds them all; otherwise each echo
        not in that set is noted, in bundle order, so the order of
        accepts is the per-item order.
        """
        if not (isinstance(bundle[1], tuple) and isinstance(bundle[2], tuple)):
            return
        inits, echoes, echo_set = _parsed(bundle, round_no)
        for message, superround in inits:
            self.note_init(sender_id, message, superround, round_no)
        absorbed = self._absorbed.get(sender_id, frozenset())
        if echo_set <= absorbed:
            return
        for record in echoes:
            if record not in absorbed:
                self.note_echo(sender_id, *record, round_no)
        self._absorbed[sender_id] = echo_set

    def note_init(
        self, sender_id: int, message: Hashable, superround: int, round_no: int
    ) -> None:
        """Record a received ``<init m>`` item.

        Honoured only when it arrives in the first round of its claimed
        superround (a correct broadcaster always satisfies this; a
        Byzantine one gains nothing by lying).
        """
        if round_no != 2 * superround:
            return
        self._echoing.add((message, superround, int(sender_id)))

    def note_echo(
        self,
        sender_id: int,
        message: Hashable,
        superround: int,
        echoed_ident: int,
        round_no: int,
    ) -> None:
        """Record a received ``<echo m, r, i>`` item from ``sender_id``.

        A sender already counted for the key changes nothing: the
        thresholds were checked when it was added.
        """
        key: BroadcastKey = (message, int(superround), int(echoed_ident))
        sender = int(sender_id)
        ids = self._echo_ids.get(key)
        if ids is None:
            ids = self._echo_ids[key] = set()
        elif sender in ids:
            return
        ids.add(sender)
        if len(ids) >= self.ell - 2 * self.t:
            self._echoing.add(key)
        if len(ids) >= self.ell - self.t:
            self._accept(key, round_no // 2)

    def _accept(self, key: BroadcastKey, superround: int) -> None:
        message, _r, ident = key
        if (message, ident) in self._accepted:
            return
        self._accepted[(message, ident)] = superround
        self._fresh_accepts.append(Accept(message, ident, superround))

    # ------------------------------------------------------------------
    # Host queries
    # ------------------------------------------------------------------
    def drain_accepts(self) -> list[Accept]:
        """New ``Accept`` events since the last drain (ordered)."""
        fresh = self._fresh_accepts
        self._fresh_accepts = []
        return fresh

    def has_accepted(self, message: Hashable, ident: int) -> bool:
        return (message, ident) in self._accepted

    def accepted_superround(self, message: Hashable, ident: int) -> int | None:
        return self._accepted.get((message, ident))

    def accept_count(self) -> int:
        """Total distinct ``(m, i)`` pairs accepted so far."""
        return len(self._accepted)


def parse_broadcast_items(
    items: Iterable[Hashable],
) -> tuple[list[tuple[Hashable, int]], list[tuple[Hashable, int, int]]]:
    """Split received payload items into init and echo records.

    Returns ``(inits, echoes)`` where inits are ``(m, r)`` and echoes
    are ``(m, r, i)``.  Malformed items are dropped (Byzantine noise).
    """
    inits: list[tuple[Hashable, int]] = []
    echoes: list[tuple[Hashable, int, int]] = []
    for item in items:
        if not isinstance(item, tuple) or not item:
            continue
        if item[0] == "init" and len(item) == 3 and isinstance(item[2], int):
            inits.append((item[1], item[2]))
        elif (
            item[0] == "echo"
            and len(item) == 4
            and isinstance(item[2], int)
            and isinstance(item[3], int)
        ):
            echoes.append((item[1], item[2], item[3]))
    return inits, echoes


#: Parsed bundles by object identity: ``id(bundle) -> (bundle, parsed)``.
#: Correct senders hand one payload object to every receiver, so each
#: is parsed once per round.  Identity, never value: ``1``, ``True`` and
#: ``1.0`` hash and compare alike, and a value key would hand one run's
#: parse to a differently typed payload.  Holding the bundle keeps its
#: id from being reused while the entry lives.  The memo is emptied at
#: each new round number and when it reaches ``_PARSED_LIMIT`` entries.
_PARSED: dict[int, tuple[tuple, tuple[list, list, frozenset]]] = {}
_PARSED_LIMIT = 512
_parsed_round = -1


def _parsed(bundle: tuple, round_no: int) -> tuple[list, list, frozenset]:
    """``(inits, echoes, frozenset(echoes))`` of ``bundle``, memoised."""
    global _parsed_round
    entry = _PARSED.get(id(bundle))
    if entry is not None and entry[0] is bundle:
        return entry[1]
    if round_no != _parsed_round or len(_PARSED) >= _PARSED_LIMIT:
        _PARSED.clear()
        _parsed_round = round_no
    inits, echoes = parse_broadcast_items(bundle[1] + bundle[2])
    parsed = (inits, echoes, frozenset(echoes))
    _PARSED[id(bundle)] = (bundle, parsed)
    return parsed
